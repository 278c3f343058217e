"""End-to-end pipeline: recolouring, repair, and the full driver."""

import dataclasses
import gc
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avdtotal.coloring as coloring
import avdtotal.pipeline as pipeline
from avdtotal import (EdgeSelection, Graph, PipelineParams, TotalColoring, cli,
                      complete_graph, cycle_graph, distinguish_low_degree,
                      find_bulk_deletion, find_patch_deletion, greedy_total,
                      light_vertices, random_gnp, recolor_union, repair_fallback,
                      run_pipeline, star_graph, to_document, verdict, violations,
                      vizing_color)

from helpers import (connected_graphs, edge_dict, from_edge_dict, hub_graph,
                     reference_repair_fallback)
from test_golden import CASES as GOLDEN_CASES


def two_hub_graph():
    edges = [(0, 1)] + [(0, a) for a in range(2, 8)] + [(1, b) for b in range(8, 14)]
    g = Graph.build(14, edges)
    phi = from_edge_dict(
        g, (1, 2, 4, 2, 2, 2, 2, 2, 3, 1, 1, 1, 1, 1),
        {(0, 1): 3, (0, 2): 2, (0, 3): 4, (0, 4): 5, (0, 5): 6, (0, 6): 7,
         (0, 7): 8, (1, 8): 1, (1, 9): 4, (1, 10): 5, (1, 11): 6, (1, 12): 7,
         (1, 13): 8}, 8)
    return g, phi


def cyclic_k5():
    # every vertex sees all of 1..5, so every adjacent pair clashes
    g = complete_graph(5)
    phi = TotalColoring(tuple((2 * v) % 5 + 1 for v in range(5)),
                        tuple((i + j) % 5 + 1 for i, j in g.edges), 5, g)
    return g, phi


def recolour(g, phi, bulk, patch):
    """recolor_union of two collections of pairs, each made a selection on g."""
    return recolor_union(g, phi, EdgeSelection.from_edges(g, bulk),
                         EdgeSelection.from_edges(g, patch))


class TestRecolorUnion:
    def test_empty_selection_returns_input(self):
        g, phi = two_hub_graph()
        assert recolour(g, phi, [], []) is phi

    def test_fresh_palette_sits_above_old_budget(self):
        g, phi = two_hub_graph()
        picked = [(0, 2), (0, 3), (1, 8)]
        out = recolour(g, phi, picked[:2], picked[2:])
        new, old = edge_dict(out), edge_dict(phi)
        for e in picked:
            assert new[e] > phi.k
        for e in g.edges:
            if e not in picked:
                assert new[e] == old[e]
        assert out.vertex_colors == phi.vertex_colors
        assert verdict(g, out)["proper"]

    def test_growth_matches_union_edge_coloring(self):
        g, phi = two_hub_graph()
        out = recolour(g, phi, g.edges, [])
        used = {c - phi.k for c in out.edge_colors}
        assert out.k - phi.k == max(used)
        assert min(used) >= 1

    def test_overlapping_selections_merge(self):
        g, phi = two_hub_graph()
        a = recolour(g, phi, [(0, 2)], [(0, 2)])
        b = recolour(g, phi, [(0, 2)], [])
        assert a == b
        assert a.stars == b.stars

    @pytest.mark.parametrize("bulk, patch", [
        ([], [(2, 0)]), ([(0, 2), (2, 0)], []), ([(2, 0)], [(0, 2)]), ([(2, 0)], [])])
    def test_reversed_pairs_select_the_graph_edge(self, bulk, patch):
        # a selection normalises its pairs, so (2, 0) is the graph edge (0, 2)
        g, phi = two_hub_graph()
        assert_same_recolour(recolour(g, phi, bulk, patch), recolour(g, phi, [(0, 2)], []))

    def test_rejects_foreign_edge(self):
        g, phi = two_hub_graph()
        with pytest.raises(ValueError):
            recolour(g, phi, [(2, 3)], [])

    def test_foreign_edge_message_names_the_smallest(self):
        g, phi = two_hub_graph()
        # strays (8, 9), (2, 3) and (4, 12) among graph edges
        with pytest.raises(ValueError, match=r"^selected edge \(2, 3\) is not in the graph$"):
            recolour(g, phi, [(0, 2), (8, 9), (1, 13), (4, 12), (2, 3), (0, 1)], [])

    @pytest.mark.parametrize("bulk, patch, stray", [
        ([(3, 2)], [], (2, 3)),
        ([(2, 0), (9, 8)], [(8, 1)], (8, 9)),
        ([], [(9, 8), (3, 2), (0, 2), (1, 13)], (2, 3)),
    ])
    def test_stray_among_reversed_pairs_is_named(self, bulk, patch, stray):
        # named normalised, as the smallest stray of its selection
        g, phi = two_hub_graph()
        with pytest.raises(ValueError, match=rf"^selected edge \({stray[0]}, {stray[1]}\) "
                                             r"is not in the graph$"):
            recolour(g, phi, bulk, patch)

    def test_memory_grows_at_most_linearly_in_k(self):
        # a supplied seed may declare a palette far above the colours it
        # uses; a bit table over the whole palette made the peak grow with
        # k squared (x3.0 from k = 2303 to 4606, then x3.5)
        g = random_gnp(200, 0.05, 3)
        seed = greedy_total(g)
        picked = EdgeSelection.from_edges(g, g.edges[::3])
        empty = EdgeSelection.from_edges(g, [])

        def peak(k):
            phi = TotalColoring(seed.vertex_colors, seed.edge_colors, k, g)
            phi.stars  # built before tracing, as run_pipeline's check does
            tracemalloc.start()
            try:
                out = recolor_union(g, phi, picked, empty)
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()

        small, out_small = peak(2303)
        big, out_big = peak(4606)
        assert out_big.k - 4606 == out_small.k - 2303
        assert big <= 2 * small

    @given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_union_degree_equals_counter(self, n, p, seed, rnd):
        # the union's edges take exactly the colours vizing_color gives the
        # union as a graph of its own, whose maximum degree a Counter over
        # its endpoints gives: so the union and its degree, counted over
        # rows of g._ends, are those of a filter of g.edges
        g = random_gnp(n, p, seed)
        if not g.edges:
            return
        chosen = rnd.sample(g.edges, rnd.randint(1, len(g.edges)))
        half = rnd.randint(0, len(chosen))
        phi = greedy_total(g)
        out = recolour(g, phi, chosen[:half], chosen[half:])
        union = [e for e in g.edges if e in set(chosen)]
        sub = vizing_color(Graph.build(g.n, union))
        assert sub.k == max(Counter(chain.from_iterable(union)).values()) + 1
        assert {e: c - phi.k for e, c in edge_dict(out).items() if c > phi.k} == sub.colors
        assert out.k == phi.k + max(sub.colors.values())

    def test_selection_from_another_graph_is_refused(self):
        g, phi = two_hub_graph()
        own = EdgeSelection.from_edges(g, [(0, 2)])
        other = EdgeSelection.from_edges(Graph.build(14, g.edges[:-1]), [(0, 2)])
        for bulk, patch in ((other, own), (own, other), (other, other)):
            with pytest.raises(ValueError, match="^the selection was not made on this graph$"):
                recolor_union(g, phi, bulk, patch)
        # pairs are no selection: from_edges makes one of them
        with pytest.raises(ValueError, match="^the selection was not made on this graph$"):
            recolor_union(g, phi, [(0, 2)], own)

    @pytest.mark.parametrize("rows", [(-1,), (2, 0), (9,), (1, 1), (0, 4)])
    def test_rows_must_ascend_within_the_edges(self, rows):
        # star_graph(4) has the four rows 0..3; the constructor refuses the
        # rows, so no selection holding them reaches recolor_union
        g = star_graph(4)
        phi = greedy_total(g)
        with pytest.raises(ValueError,
                           match=r"^selection rows must ascend strictly within 0\.\.3$"):
            EdgeSelection(rows, g)
        # the same rows made valid are recoloured, and the result is proper
        ok = EdgeSelection(tuple(sorted({r % 4 for r in rows})), g)
        out = recolor_union(g, phi, ok, EdgeSelection.from_edges(g, []))
        assert out.k > phi.k and coloring._proper(violations(g, out))

    @pytest.mark.parametrize("size", [0, 4, 6])
    def test_count_cannot_be_passed_in(self, size):
        # the counts are derived from the rows, so none can disagree with them
        g = star_graph(4)
        assert [f.name for f in dataclasses.fields(EdgeSelection)] == ["rows", "graph"]
        with pytest.raises(TypeError):
            EdgeSelection((0,), (1,) * size, g)
        with pytest.raises(TypeError):
            EdgeSelection((0,), g, per_vertex_count=(1,) * size)
        selection = EdgeSelection((0,), g)
        with pytest.raises(TypeError):
            dataclasses.replace(selection, per_vertex_count=(1,) * size)
        assert selection.per_vertex_count == (1, 1, 0, 0, 0)


def stage_selections(g, phi, params):
    """Both deletion stages' selections, as run_pipeline makes them."""
    bulk = find_bulk_deletion(g, phi, params)
    light = light_vertices(g, bulk.selection, params.m)
    return bulk.selection, find_patch_deletion(g, phi, bulk.selection, light, params)


def assert_same_recolour(a, b):
    assert a.edge_colors == b.edge_colors and a.graph == b.graph
    assert (a.stars, a.k, a.vertex_colors) == (b.stars, b.k, b.vertex_colors)


class TestRowHandOff:
    """A stage's selection, read from its rows, recolours exactly as a
    selection made from the same edges given as pairs."""

    @given(st.integers(2, 60), st.sampled_from([0.05, 0.2, 0.5, 0.9]),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_marked_equals_pairs(self, n, q, seed, hubs):
        g = hub_graph(seed, max(n, 6), 2, 2) if hubs else random_gnp(n, q, seed)
        phi = greedy_total(g)
        bulk, patch = stage_selections(g, phi, PipelineParams(seed=seed))
        patch = patch.selection
        staged = recolor_union(g, phi, bulk, patch)
        assert_same_recolour(staged, recolour(g, phi, list(bulk.edges),
                                              sorted(patch.edges)))
        # both made on an equal graph that is another object
        twin = Graph.build(g.n, g.edges)
        assert_same_recolour(staged, recolor_union(twin, phi, bulk, patch))
        # and the other way round: selections of twin, recoloured on g
        assert_same_recolour(staged, recolour(twin, phi, bulk.edges, patch.edges))
        if g.edges:
            # a graph that lacks one edge is not equal, whatever is selected
            fewer = Graph.build(g.n, g.edges[:-1])
            with pytest.raises(ValueError, match="not made on this graph"):
                recolor_union(fewer, phi, bulk, patch)

    def test_infeasible_patch_adds_no_edge(self):
        # the patch search is infeasible and the bulk stage keeps four of
        # the six edges; the union is those four alone
        g = random_gnp(6, 0.3, 1)
        phi = greedy_total(g)
        bulk, patch = stage_selections(g, phi, PipelineParams())
        assert patch.infeasible_vertex is not None
        assert len(bulk.rows) == 4 and len(g.edges) == 6
        out = recolor_union(g, phi, bulk, patch.selection)
        assert_same_recolour(out, recolour(g, phi, bulk.edges, []))
        assert {e for e, c in edge_dict(out).items() if c > phi.k} == bulk.edges

    def test_pipeline_builds_no_tuple_set_and_no_fan_index(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the run built an edge set or a fan index")

        g = random_gnp(5000, 0.004, 2001)
        expected = run_pipeline(g)[0]
        # no vertex is light there, so no selection's edge set is read
        monkeypatch.setattr(EdgeSelection, "edges", property(refuse))
        monkeypatch.setattr("avdtotal.vizing._fan_index", refuse)
        out, report = run_pipeline(g)
        assert report.fresh_palette_size > 0
        assert_same_recolour(out, expected)

    def test_patch_stage_reads_no_edge_set(self, monkeypatch):
        # the patch pools and the bulk edges cleared at light vertices are
        # rows, so no selection's edge set is read even where vertices are light
        g = hub_graph(0, 200, 3, 3)
        params = PipelineParams(lam=3.0, m=5, d=1, seed=0)
        bulk, patch = stage_selections(g, greedy_total(g), params)
        assert light_vertices(g, bulk, params.m) and patch.selection.rows
        expected = run_pipeline(g, params=params)[0]

        def refuse(selection):
            raise AssertionError("the run built an edge set")

        monkeypatch.setattr(EdgeSelection, "edges", property(refuse))
        assert_same_recolour(run_pipeline(g, params=params)[0], expected)


class TestRepairFallback:
    def test_fixes_fully_clashing_clique(self):
        g, phi = cyclic_k5()
        assert [v.kind for v in violations(g, phi)] == ["undistinguished-pair"] * 10
        out = repair_fallback(g, phi)
        assert out.k == 8  # three rounds, one fresh colour each
        assert violations(g, out) == []

    def test_clean_input_untouched(self):
        g = star_graph(6)
        phi = greedy_total(g)
        assert repair_fallback(g, phi) is phi

    def test_corpus_with_many_rounds(self):
        rounds = []
        for seed in range(20):
            g = random_gnp(60 + 10 * seed, Fraction(1, 40), seed)
            phi = greedy_total(g)
            out = repair_fallback(g, phi)
            assert out == reference_repair_fallback(g, phi)
            assert violations(g, out) == []
            rounds.append(out.k - phi.k)
        # the comparison means little unless runs take many rounds
        assert sum(rounds) >= 100 and max(rounds) > 3

    @given(st.integers(0, 2 ** 32 - 1), st.integers(10, 150), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_equals_round_loop_on_sparse_greedy_seeds(self, seed, n, mean_degree):
        g = random_gnp(n, Fraction(mean_degree, n), seed)
        phi = greedy_total(g)
        out = repair_fallback(g, phi)
        assert out == reference_repair_fallback(g, phi)


def carried(phase, g, phi, *args):
    """phase's result on phi, after checking that the result carries masks
    equal to a fresh build, set by the phase rather than built on reading,
    and that phi's own masks are unchanged."""
    before = phi.stars
    out = phase(g, phi, *args)
    assert phi.stars is before and before == coloring._closed_stars(phi)
    if out is not phi:
        assert "stars" in vars(out)
        assert out.stars == coloring._closed_stars(out)
    return out


def carry_through(g, phi, bulk, patch):
    """The recolour, low-degree and repair phases in pipeline order, each
    checked by ``carried``, from the selections bulk and patch of g;
    returns the number of repairs."""
    recolored = carried(recolor_union, g, phi, bulk, patch)
    lowered = carried(distinguish_low_degree, g, recolored)
    return carried(repair_fallback, g, lowered).k - lowered.k


class TestCarriedStars:
    """Each phase hands its result the masks of that result."""

    @given(st.integers(1, 40), st.sampled_from([0.1, 0.3, 0.6, 0.9]),
           st.integers(0, 2 ** 32 - 1), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, n, q, seed, rnd):
        g = random_gnp(n, q, seed)
        phi = greedy_total(g)
        picked = [e for e in g.edges if rnd.random() < 0.3]
        half = len(picked) // 2
        carry_through(g, phi, EdgeSelection.from_edges(g, picked[:half]),
                      EdgeSelection.from_edges(g, picked[half:]))
        carried(repair_fallback, g, phi)  # the seed's many equal pairs

    def test_clique_with_repairs(self):
        g, phi = cyclic_k5()
        assert carried(repair_fallback, g, phi).k > phi.k
        assert carry_through(g, phi, EdgeSelection.from_edges(g, [(0, 1), (2, 3)]),
                             EdgeSelection.from_edges(g, [(1, 4)])) > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_hub_graph_selections(self, seed):
        # a small lam leaves the hubs light, so the patch stage selects edges
        g = hub_graph(seed, 200, 3, 3)
        phi = greedy_total(g)
        params = PipelineParams(lam=3.0, m=5, d=1, seed=seed)
        bulk = find_bulk_deletion(g, phi, params)
        light = light_vertices(g, bulk.selection, params.m)
        patch = find_patch_deletion(g, phi, bulk.selection, light, params)
        assert patch.selection.rows
        carry_through(g, phi, bulk.selection, patch.selection)


class TestRunPipeline:
    def test_short_circuit_on_distinguishing_input(self):
        g = star_graph(6)
        phi = greedy_total(g)
        out, report = run_pipeline(g, phi)
        assert out is phi
        assert report.short_circuit is True
        assert report.e1_success is None and report.e2_success is None
        assert report.e1_rounds == 0 and report.e2_rounds == 0
        assert report.fresh_palette_size == 0 and report.fallback_repairs == 0
        assert report.final_k == report.input_k == phi.k
        assert report.verified == {"proper": True, "avd": True}
        assert sorted(report.phase_timings) == ["seed", "verify_input"]

    def test_sparse_cycle_rides_the_fallback_path(self):
        # every vertex of C_5 is high but far below the deletion thresholds,
        # so both randomized stages report failure and the deterministic
        # recolouring still lands a distinguishing result
        g = cycle_graph(5)
        out, report = run_pipeline(g)
        assert report.short_circuit is False
        assert report.e1_success is False and report.e1_rounds == 1
        assert report.e2_success is False and report.e2_rounds == 0
        assert report.e2_infeasible_vertex == 0
        assert report.input_k == 4 and report.final_k == 7
        assert report.fresh_palette_size == 3 and report.fallback_repairs == 0
        assert report.verified == {"proper": True, "avd": True}
        assert violations(g, out) == []

    def test_fully_clashing_clique(self):
        g, phi = cyclic_k5()
        out, report = run_pipeline(g, phi)
        assert report.input_k == 5 and report.final_k == 10
        assert report.fresh_palette_size == 5
        assert report.e2_infeasible_vertex == 0
        assert report.verified == {"proper": True, "avd": True}

    def test_patch_runs_after_bulk_failure(self):
        g, phi = two_hub_graph()
        out, report = run_pipeline(g, phi, PipelineParams(m=5, d=1))
        assert report.e1_success is False
        assert report.e2_success is True
        assert report.final_k == 15 and report.fresh_palette_size == 7
        assert report.verified == {"proper": True, "avd": True}

    def test_both_stages_succeed_with_generous_slack(self):
        g, phi = two_hub_graph()
        params = PipelineParams(m=5, d=1, eps=Fraction(9, 10))
        out, report = run_pipeline(g, phi, params)
        assert report.e1_success is True and report.e2_success is True
        assert report.e2_infeasible_vertex is None
        assert report.final_k - report.input_k == 7

    def test_palette_accounting_is_exact(self):
        cases = [run_pipeline(cycle_graph(5))[1],
                 run_pipeline(*cyclic_k5())[1],
                 run_pipeline(*two_hub_graph())[1]]
        for report in cases:
            assert (report.final_k - report.input_k
                    == report.fresh_palette_size + report.fallback_repairs)

    def test_full_run_times_every_phase(self):
        _, report = run_pipeline(cycle_graph(5))
        assert sorted(report.phase_timings) == [
            "bulk", "low_degree", "patch", "recolor", "repair", "seed",
            "verify_output"]
        assert all(t >= 0.0 for t in report.phase_timings.values())
        # a supplied seed adds its entry pass
        _, report = run_pipeline(*cyclic_k5())
        assert sorted(report.phase_timings) == [
            "bulk", "low_degree", "patch", "recolor", "repair", "seed",
            "verify_input", "verify_output"]

    def test_json_omits_timings_by_default(self):
        # wall-clock times stay off the JSON, readable on the report itself
        _, report = run_pipeline(cycle_graph(5))
        assert "phase_timings" not in report.to_json()
        assert set(report.phase_timings) >= {"seed", "repair", "verify_output"}

    def test_json_fields(self):
        _, report = run_pipeline(cycle_graph(5))
        assert sorted(report.to_json()) == [
            "M", "e1_rounds", "e1_success", "e2_infeasible_vertex",
            "e2_rounds", "e2_success", "fallback_repairs", "final_k",
            "fresh_palette_size", "input_k", "lam", "p", "short_circuit",
            "verified"]

    def test_deterministic_given_seed(self):
        g, phi = two_hub_graph()
        params = PipelineParams(m=5, d=1, eps=Fraction(9, 10), seed=11)
        a = run_pipeline(g, phi, params)
        b = run_pipeline(g, phi, params)
        assert a[0] == b[0]
        assert a[1].to_json() == b[1].to_json()

    def test_rejects_improper_input(self):
        g = cycle_graph(4)
        bad = TotalColoring((1, 1, 1, 1), (2,) * len(g.edges), 2, g)
        with pytest.raises(ValueError):
            run_pipeline(g, bad)

    def test_exit_check_rejects_improper_result(self, monkeypatch):
        def clash(g, phi):
            vertex_colors = list(phi.vertex_colors)
            vertex_colors[1] = vertex_colors[0]
            return TotalColoring(tuple(vertex_colors), phi.edge_colors, phi.k, g)

        monkeypatch.setattr("avdtotal.pipeline.distinguish_low_degree", clash)
        with pytest.raises(RuntimeError, match="vertex-vertex"):
            run_pipeline(cycle_graph(5))

    def test_exit_check_rejects_undistinguished_result(self, monkeypatch):
        # with every recolouring phase a no-op, the fully clashing input
        # reaches the exit check unchanged
        monkeypatch.setattr("avdtotal.pipeline.recolor_union",
                            lambda g, phi, a, b: phi)
        monkeypatch.setattr("avdtotal.pipeline.distinguish_low_degree",
                            lambda g, phi: phi)
        monkeypatch.setattr("avdtotal.pipeline.repair_fallback",
                            lambda g, phi: phi)
        with pytest.raises(RuntimeError, match="undistinguished-pair"):
            run_pipeline(*cyclic_k5())

    def test_exit_check_ignores_carried_masks(self, monkeypatch):
        # the low-degree stand-in returns the fully clashing colouring with
        # masks that are pairwise distinct, so the real repair step sees no
        # equal pair and repairs nothing; only the exit check can notice
        g, clashing = cyclic_k5()

        def hide(g, phi):
            out = TotalColoring(clashing.vertex_colors, clashing.edge_colors,
                                clashing.k, g)
            object.__setattr__(out, "stars", tuple(1 << v for v in range(g.n)))
            return out

        monkeypatch.setattr("avdtotal.pipeline.distinguish_low_degree", hide)
        with pytest.raises(RuntimeError, match="undistinguished-pair"):
            run_pipeline(g, clashing)

    def test_entry_pass_ignores_carried_masks(self):
        # pairwise distinct masks on the fully clashing seed would let a
        # pass that read them return it as already distinguishing
        g, phi = cyclic_k5()
        poison = tuple(1 << v for v in range(g.n))
        object.__setattr__(phi, "stars", poison)
        out, report = run_pipeline(g, phi)
        assert report.short_circuit is False and violations(g, out) == []
        assert phi.stars is poison

    def test_masks_built_at_entry_and_exit_only(self, monkeypatch):
        # a self-seeded run through every phase makes one verifier pass, on
        # the result, and builds no colour set from an edge-colour dict: the
        # greedy seed carries its masks, the phases keep them current and
        # the verifier reads colours only; a supplied seed adds its entry
        # pass, which builds the masks it hands on once
        passes, builds, changed = [], [], []

        def recording(log, original):
            def call(*args):
                log.append(args)
                return original(*args)
            return call

        def low_degree(g, phi, **kwargs):
            out = distinguish_low(g, phi, **kwargs)
            changed.append(out.vertex_colors != phi.vertex_colors)
            return out

        distinguish_low = distinguish_low_degree
        monkeypatch.setattr(coloring, "_judge", recording(passes, coloring._judge))
        monkeypatch.setattr(coloring, "_closed_stars", recording(builds, coloring._closed_stars))
        monkeypatch.setattr(pipeline, "distinguish_low_degree", low_degree)
        # two adjacent hubs stay light, so the patch stage checks B2_pair
        _, report = run_pipeline(hub_graph(4, 200, 3, 3),
                                 params=PipelineParams(lam=3.0, m=5, d=1))
        assert report.e1_rounds > 0 and report.e2_success is True
        assert report.fresh_palette_size > 0 and changed == [True]
        # a run that repairs makes the same passes (tests/test_cli.py)
        assert report.fallback_repairs == 0
        assert (len(passes), len(builds)) == (1, 0)
        g = hub_graph(4, 200, 3, 3)
        run_pipeline(g, greedy_total(g), PipelineParams(lam=3.0, m=5, d=1))
        assert (len(passes), len(builds)) == (3, 1)

    def test_rejects_mismatched_shape(self):
        g = cycle_graph(4)
        phi = greedy_total(cycle_graph(5))
        with pytest.raises(ValueError):
            run_pipeline(g, phi)


class TestPaletteBound:
    """The entry check's bound k <= 2(n + |E|) + 1 lets back in every
    colouring a self-seeded run produces: the greedy seed uses at most
    2Δ + 1 colours, the recolour adds at most Δ + 1 and the repair at most
    one per edge, and Δ <= n - 1, Δ <= |E|."""

    @staticmethod
    def readmitted(g):
        out, _ = run_pipeline(g)
        assert out.k <= 2 * (g.n + len(g.edges)) + 1
        again, report = run_pipeline(g, out)
        assert again is out and report.short_circuit is True
        coloring._require_proper(g, greedy_total(g))

    @given(st.integers(0, 40), st.floats(0, 1), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, n, p, seed):
        self.readmitted(random_gnp(n, p, seed))

    def test_small_connected_graphs(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                self.readmitted(g)


class TestCollectorPause:
    """``run_pipeline`` and ``to_document`` run with the cyclic collector
    paused, as ``avdtotal`` commands do: a solve leaves no reference cycles,
    and each call hands the collector back as it found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_solves_leave_no_cycles(self, name, tmp_path):
        text, flags, _ = GOLDEN_CASES[name]
        path = tmp_path / "graph.in"
        path.write_text(text())
        args = cli.build_parser().parse_args(["color", "--in", str(path), *flags])
        g, params = cli._load_graph(args), cli._params_from(args)
        gc.disable()
        gc.collect()
        out, _ = run_pipeline(g, params=params)
        assert to_document(g, out)["verified"] == {"proper": True, "avd": True}
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_restored(self, enabled, monkeypatch):
        during = []

        def recording(module, name):
            original = getattr(module, name)

            def call(*args):
                during.append(gc.isenabled())
                return original(*args)

            monkeypatch.setattr(module, name, call)

        recording(pipeline, "greedy_total")
        recording(pipeline, "_require_proper")
        # to_document(g, out) takes the run's verdict and only writes the
        # body; on another graph it verifies afresh, and raises there
        recording(coloring, "_document_body")
        recording(coloring, "verdict")
        (gc.enable if enabled else gc.disable)()
        g = cycle_graph(5)
        out, _ = run_pipeline(g)
        assert gc.isenabled() is enabled
        to_document(g, out)
        assert gc.isenabled() is enabled
        bad = TotalColoring((1, 1, 2, 2, 3), out.edge_colors, out.k, g)
        with pytest.raises(ValueError, match="colouring is not proper"):
            run_pipeline(g, bad)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="vertex colour count"):
            to_document(cycle_graph(4), out)
        assert gc.isenabled() is enabled
        assert during == [False] * 4


class TestOneVerifierPass:
    """``run_pipeline`` then ``to_document`` verify a result once, at the
    run's exit; every colouring the run did not accept on that very graph
    object is verified afresh, with the flags ``verdict`` gives."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []

        def counting(g, phi):
            counted.append(phi)
            return violations(g, phi)

        monkeypatch.setattr(coloring, "violations", counting)
        monkeypatch.setattr(pipeline, "violations", counting)
        return counted

    @pytest.mark.parametrize("g", [cycle_graph(5), random_gnp(20, 0.4, 1),
                                   two_hub_graph()[0], complete_graph(1)],
                             ids=["C5", "gnp20", "two_hubs", "K1"])
    def test_pipeline_result_verified_once(self, g, calls):
        out, report = run_pipeline(g)
        doc = to_document(g, out)
        assert len(calls) == 1 and calls[0] is out
        assert doc["verified"] == report.verified == verdict(g, out)

    def unaccepted(self, g):
        """Colourings of g that the pipeline never accepted, by name."""
        out, _ = run_pipeline(g)
        return {
            "hand_built": TotalColoring(out.vertex_colors, out.edge_colors, out.k, g),
            "improper": TotalColoring((1,) * g.n, out.edge_colors, out.k, g),
            "replaced": dataclasses.replace(out),
            "greedy": greedy_total(g),
        }

    @pytest.mark.parametrize("name", ["hand_built", "improper", "replaced", "greedy"])
    def test_other_colourings_verified_afresh(self, name, calls):
        g = cycle_graph(7)
        phi = self.unaccepted(g)[name]
        calls.clear()
        doc = to_document(g, phi)
        assert calls == [phi]
        assert doc["verified"] == verdict(g, phi)

    def test_supplied_distinguishing_seed_verified_in_the_document(self, calls):
        # returned as the caller's own object, with no exit pass, so the
        # document verifies it
        g = star_graph(5)
        seed = greedy_total(g)
        out, report = run_pipeline(g, seed)
        assert out is seed and report.short_circuit
        doc = to_document(g, out)
        assert calls == [seed]
        assert doc["verified"] == verdict(g, seed) == {"proper": True, "avd": True}

    def test_supplied_seed_recoloured_verified_once(self, calls):
        g = cycle_graph(7)
        seed = greedy_total(g)
        out, report = run_pipeline(g, seed)
        assert out is not seed and not report.short_circuit
        to_document(g, out)
        assert calls == [out]

    def test_equal_graph_verified_afresh(self, calls):
        g = random_gnp(20, 0.4, 1)
        out, _ = run_pipeline(g)
        rebuilt = Graph.build(g.n, list(g.edges))
        assert rebuilt == g and rebuilt is not g
        calls.clear()
        doc = to_document(rebuilt, out)
        assert calls == [out]
        assert doc == to_document(g, out)
        assert doc["verified"] == verdict(g, out)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 14))
@settings(max_examples=40, deadline=None)
def test_pipeline_always_lands_distinguishing(seed, n):
    g = random_gnp(n, Fraction(1, 2), seed)
    out, report = run_pipeline(g, params=PipelineParams(seed=seed))
    assert report.verified == {"proper": True, "avd": True}
    assert violations(g, out) == []
    assert (report.final_k - report.input_k
            == report.fresh_palette_size + report.fallback_repairs)
    assert out.k == report.final_k
