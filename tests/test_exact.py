"""Exhaustive solvers cross-checked against brute enumeration."""

import gc
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdtotal import (CapacityError, Graph, Graph6Error, check_conjecture,
                      chi_at_exact, chi_prime_exact, chi_total_exact,
                      complete_bipartite_graph, complete_graph, cycle_graph,
                      exact, find_edge_coloring, find_total_coloring,
                      normalize_edge, parse_graph6, path_graph, random_gnp, star_graph,
                      verdict, write_graph6)

from helpers import (_connected, _reference_backtrack, _reference_total_structure,
                     canonical_form, connected_graphs, enumerate_total_colorings,
                     naive_is_avd, naive_is_proper, reference_find_total_coloring,
                     reference_least_k, reference_search_plan)

# every connected graph on 7 vertices, one per isomorphism class, as
# tools/write_corpus.py writes it
CORPUS_7 = Path(__file__).resolve().parent / "data" / "connected_7.g6"
# the exact_small workload's graph6 inputs with their recorded chi_at values
EXACT_SMALL = Path(__file__).resolve().parents[1] / "benchmarks" / "data" / "exact_small.json"


def corpus_7():
    return [parse_graph6(line) for line in CORPUS_7.read_text().splitlines()]


def assert_edge_coloring_matches_reference(g, ks):
    m = len(g.edges)
    conflict = [[j for j, f in enumerate(g.edges) if j != i and set(e) & set(f)]
                for i, e in enumerate(g.edges)]
    order = sorted(range(m), key=lambda j: (-len(conflict[j]), j))
    for k in ks:
        want = _reference_backtrack(m, conflict, order, k)
        got = find_edge_coloring(g, k)
        if want is None:
            assert got is None, (write_graph6(g), k)
        else:
            assert got is not None, (write_graph6(g), k)
            assert got.colors == dict(zip(g.edges, want)) and got.k == k


def brute_chi_total(g):
    t = g.n + len(g.edges)
    if t == 0:
        return 0
    for k in range(1, t + 1):
        for phi in enumerate_total_colorings(g, k):
            return k  # enumeration only yields proper colourings
    raise AssertionError


def brute_chi_at(g):
    t = g.n + len(g.edges)
    if t == 0:
        return 0
    for k in range(1, t + 1):
        for phi in enumerate_total_colorings(g, k):
            if naive_is_avd(g, phi):
                return k
    raise AssertionError


class TestEdgeColoring:
    def test_infeasible_returns_none(self):
        assert find_edge_coloring(cycle_graph(5), 2) is None

    def test_feasible_is_valid(self):
        g = cycle_graph(5)
        ec = find_edge_coloring(g, 3)
        assert ec is not None
        for v in range(g.n):
            cols = [ec.colors[normalize_edge(v, w)] for w in g.adjacency[v]]
            assert len(cols) == len(set(cols))

    @pytest.mark.parametrize("g,expected", [
        (path_graph(2), 1),
        (path_graph(4), 2),
        (cycle_graph(4), 2),
        (cycle_graph(5), 3),
        (complete_graph(3), 3),
        (complete_graph(4), 3),
        (complete_graph(5), 5),
        (star_graph(5), 5),
        (complete_bipartite_graph(3, 3), 3),
    ])
    def test_chi_prime_known(self, g, expected):
        assert chi_prime_exact(g) == expected

    def test_chi_prime_edgeless(self):
        assert chi_prime_exact(Graph.build(4, [])) == 0

    def test_chi_prime_guard(self):
        with pytest.raises(CapacityError):
            chi_prime_exact(complete_graph(10))  # 45 edges

    def test_counting_exit_matches_search(self):
        # the counting exits and the star-mask search return what the
        # conflict-list backtracker returns, on conflict lists built here
        # from shared endpoints
        for g in atlas():
            assert_edge_coloring_matches_reference(g, range(g.max_degree + 2))

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_random_gnp_matches_reference(self, p):
        for n in range(4, 13):
            for seed in range(8):
                g = random_gnp(n, p, seed)
                if len(g.edges) <= exact.EDGE_GUARD:
                    assert_edge_coloring_matches_reference(
                        g, [g.max_degree, g.max_degree + 1])

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_cliques_and_cycles_exit_at_max_degree(self, n):
        assert find_edge_coloring(complete_graph(n), n - 1) is None
        assert find_edge_coloring(cycle_graph(n), 2) is None

    def test_k9_returns_at_once(self):
        # 36 edges: without the counting exit the search at k = 8 runs
        # for more than a minute
        start = time.perf_counter()
        assert chi_prime_exact(complete_graph(9)) == 9
        assert find_edge_coloring(complete_graph(9), 9) is not None
        assert time.perf_counter() - start < 1.0


class TestChiTotal:
    @pytest.mark.parametrize("g,expected", [
        (path_graph(2), 3),   # both endpoints and the edge mutually clash
        (path_graph(3), 3),
        (cycle_graph(3), 3),
        (cycle_graph(4), 4),
        (cycle_graph(5), 4),
        (cycle_graph(6), 3),
        (complete_graph(4), 5),
        (star_graph(4), 5),
    ])
    def test_known(self, g, expected):
        assert chi_total_exact(g) == expected

    def test_empty(self):
        assert chi_total_exact(Graph.build(0, [])) == 0
        assert chi_total_exact(Graph.build(3, [])) == 1

    def test_matches_brute_on_connected_n4(self):
        for g in connected_graphs(4):
            assert chi_total_exact(g) == brute_chi_total(g)

    def test_guard(self):
        with pytest.raises(CapacityError):
            chi_total_exact(complete_graph(9))  # 9 + 36 = 45 elements

    def test_returned_coloring_verifies(self):
        g = cycle_graph(5)
        phi = find_total_coloring(g, 4)
        assert phi is not None
        assert naive_is_proper(g, phi)

    def test_infeasible_returns_none(self):
        assert find_total_coloring(cycle_graph(5), 3) is None


class TestChiAt:
    @pytest.mark.parametrize("g,expected", [
        (path_graph(2), 3),
        (path_graph(3), 3),
        (complete_graph(3), 5),
        (cycle_graph(4), 4),
        (cycle_graph(5), 4),
    ])
    def test_known(self, g, expected):
        assert chi_at_exact(g) == expected

    def test_matches_brute_on_connected_n4(self):
        for g in connected_graphs(4):
            assert chi_at_exact(g) == brute_chi_at(g)

    def test_distinguishing_coloring_verifies(self):
        g = complete_graph(3)
        phi = find_total_coloring(g, 5, distinguishing=True)
        assert phi is not None
        assert naive_is_avd(g, phi)
        assert verdict(g, phi) == {"proper": True, "avd": True}

    def test_distinguishing_infeasible(self):
        assert find_total_coloring(complete_graph(3), 4,
                                   distinguishing=True) is None

    def test_at_least_total(self):
        for g in connected_graphs(4):
            assert chi_at_exact(g) >= chi_total_exact(g)

    def test_empty(self):
        assert chi_at_exact(Graph.build(2, [])) == 1


def atlas():
    """Every connected graph on at most 6 vertices."""
    return [g for n in range(1, 7) for g in connected_graphs(n)]


def has_adjacent_max_pair(g):
    return any(g.degree(u) == g.max_degree == g.degree(v) for u, v in g.edges)


def assert_matches_reference(g, ks):
    for k in ks:
        for distinguishing in (False, True):
            got = find_total_coloring(g, k, distinguishing)
            want = reference_find_total_coloring(g, k, distinguishing)
            assert got == want, (write_graph6(g), k, distinguishing)


class TestAgainstReference:
    """The star-mask search returns the hook-driven search's colouring."""

    def test_connected_graphs_up_to_6(self):
        for g in atlas():
            assert_matches_reference(g, range(g.max_degree + 1, chi_at_exact(g) + 1))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_gnp(self, n):
        for p in (0.3, 0.5):
            for seed in range(4):
                g = random_gnp(n, p, seed)
                assert_matches_reference(
                    g, range(g.max_degree + 1, chi_at_exact(g) + 1))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_random_gnp_dense(self, n):
        # test_random_gnp at p = 0.7; at n = 8 the reference takes 12 s on
        # seed 1
        for seed in range(4):
            g = random_gnp(n, 0.7, seed)
            assert_matches_reference(g, range(g.max_degree + 1, chi_at_exact(g) + 1))

    def test_exhaustive_failure(self):
        # twelve vertices with an adjacent maximum-degree pair: the
        # distinguishing search at k = 6 fails after a full search
        g = parse_graph6("KcPFGgQ_P@l_")
        assert g.max_degree == 5 and has_adjacent_max_pair(g)
        assert find_total_coloring(g, 6, distinguishing=True) is None
        assert_matches_reference(g, [6])


def assert_chis_match_reference(g):
    t = g.n + len(g.edges)
    assert chi_total_exact(g) == reference_least_k(
        g, range(g.max_degree + 1, 2 * g.max_degree + 2), False), write_graph6(g)
    assert chi_at_exact(g) == reference_least_k(
        g, range(exact._chi_at_lower_bound(g), t + 1), True), write_graph6(g)


class TestLeastKByValue:
    """The least-k scan plans once and decides each k by the bare search;
    χ_T and χ_AT are those of find_total_coloring at each k in turn."""

    def test_connected_graphs_up_to_6(self):
        for g in atlas():
            assert_chis_match_reference(g)

    def test_corpus_7(self):
        for g in corpus_7():
            assert_chis_match_reference(g)

    def test_exact_small_random_graphs(self):
        # the twelve random_gnp(12, 0.35) graphs of the exact_small workload
        data = json.loads(EXACT_SMALL.read_text())["gnp12_p035_seeds_0_to_11"]
        assert [line for line, _ in data] == \
            [write_graph6(random_gnp(12, 0.35, s)) for s in range(12)]
        for line, _ in data:
            assert_chis_match_reference(parse_graph6(line))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_random_gnp(self, n):
        for p in (0.3, 0.5, 0.7):
            for seed in range(4):
                assert_chis_match_reference(random_gnp(n, p, seed))

    def test_one_plan_and_one_bound_per_graph(self, monkeypatch):
        # K5 plus a pendant vertex: the bound is 6, and χ_AT = 7 after a
        # failed search at 6; the scan of find_total_coloring calls planned
        # twice and computed the bound three times
        calls = defaultdict(int)
        for name in ("_plan", "_chi_at_lower_bound", "_search"):
            def counted(*args, _name=name, _f=getattr(exact, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(exact, name, counted)
        assert chi_at_exact(parse_graph6("E~|?")) == 7
        assert calls == {"_plan": 1, "_chi_at_lower_bound": 1, "_search": 2}

    @pytest.mark.parametrize("chi", [chi_at_exact, chi_total_exact],
                             ids=["chi_at", "chi_total"])
    def test_guard_error_unchanged(self, chi):
        g = path_graph(21)  # 41 elements
        for scan in (chi, lambda g: reference_least_k(g, range(1, 42), chi is chi_at_exact)):
            with pytest.raises(CapacityError) as exc:
                scan(g)
            assert str(exc.value) == "41 elements exceed the search guard 40"


class TestTotalOrder:
    """The one-sort search order is the reference's listed, stably sorted one."""

    def test_connected_graphs_up_to_6(self):
        for g in atlas():
            assert exact._total_order(g) == _reference_total_structure(g)[1], write_graph6(g)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_random_gnp(self, n):
        for p in (0.2, 0.5, 0.8):
            for seed in range(4):
                g = random_gnp(n, p, seed)
                assert exact._total_order(g) == _reference_total_structure(g)[1]


def assert_plan_matches_reference(g):
    for distinguishing in (False, True):
        assert exact._plan(g, distinguishing) == reference_search_plan(g, distinguishing), \
            (write_graph6(g), distinguishing)


class TestSearchPlan:
    """The one-pass plan holds the steps of the per-position reference, in order:
    the same elements, stars, neighbours, pairs and look-ahead checks."""

    def test_connected_graphs_up_to_6(self):
        for g in atlas():
            assert_plan_matches_reference(g)

    def test_corpus_7(self):
        for g in corpus_7():
            assert_plan_matches_reference(g)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_random_gnp(self, n):
        for p in (0.2, 0.5, 0.8):
            for seed in range(4):
                assert_plan_matches_reference(random_gnp(n, p, seed))

    def test_edgeless_and_empty(self):
        for n in range(4):
            assert_plan_matches_reference(Graph.build(n, []))


def assert_vertex_last_has_no_twin(g):
    """The look-ahead's precondition: where a vertex is the last element of
    its own closed star under ``_total_order``, no neighbour has its degree."""
    at = {e: i for i, e in enumerate(exact._total_order(g))}
    last = list(range(g.n))  # each vertex's last star element so far: itself
    for j, (u, v) in enumerate(g.edges):
        for x in (u, v):
            if at[g.n + j] > at[last[x]]:
                last[x] = g.n + j
    for v in range(g.n):
        if last[v] == v:
            assert all(g.degree(w) != g.degree(v) for w in g.adjacency[v]), \
                (write_graph6(g), v)


class TestTwinLookAhead:
    """The last-element look-ahead cuts only subtrees without a completion."""

    def test_vertex_ends_its_star_only_without_twins_small(self):
        for g in atlas():
            assert_vertex_last_has_no_twin(g)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_vertex_ends_its_star_only_without_twins_random(self, n):
        for p in (0.2, 0.5, 0.8):
            for seed in range(5):
                assert_vertex_last_has_no_twin(random_gnp(n, p, seed))

    def test_tail_graph_matches_reference(self):
        # 317 570 search nodes before the look-ahead, 44 with it
        g = random_gnp(12, 0.35, 1)
        got = find_total_coloring(g, 8, True)
        assert got is not None and naive_is_avd(g, got)
        assert got == reference_find_total_coloring(g, 8, True)

    def test_tail_graph_returns_at_once(self):
        # about 3 s without the look-ahead, most of it at k = 8
        g = random_gnp(10, 0.5, 16)
        start = time.perf_counter()
        assert chi_at_exact(g) == 8
        assert time.perf_counter() - start < 1.0


class TestLowerBound:
    def test_adjacent_max_pair_needs_two_more_colours(self):
        pairs = [g for g in atlas() if has_adjacent_max_pair(g)]
        assert len(pairs) == 73  # of 143
        for g in pairs:
            assert find_total_coloring(g, g.max_degree + 1, distinguishing=True) is None

    def test_below_bound_agrees_with_reference(self):
        # up to the bound the answer is None without a search, and the
        # full search agrees; at the bound both search
        for g in connected_graphs(5):
            for distinguishing in (False, True):
                bound = (exact._chi_at_lower_bound(g) if distinguishing
                         else g.max_degree + 1)
                for k in range(bound + 1):
                    got = find_total_coloring(g, k, distinguishing)
                    assert got == reference_find_total_coloring(g, k, distinguishing)
                    if k < bound:
                        assert got is None

    def test_below_bound_returns_at_once(self):
        # max degree 7 with an adjacent pair of degree-7 vertices: the
        # bound is 9, and an exhaustive search at k = 8 runs for tens of
        # seconds
        g = random_gnp(8, 0.8, 1)
        assert exact._chi_at_lower_bound(g) == 9
        start = time.perf_counter()
        assert find_total_coloring(g, 8, distinguishing=True) is None
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("search", [
        find_edge_coloring, find_total_coloring,
        lambda g, k: find_total_coloring(g, k, distinguishing=True)],
        ids=["edge", "total", "distinguishing"])
    def test_huge_k_costs_no_memory(self, search):
        # first-use symmetry breaking never colours above the element
        # count, so the palette stops there; a k-bit palette peaked at
        # 2.5 MB on this five-element graph
        g = path_graph(3)
        tracemalloc.start()
        try:
            result = search(g, 10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result is not None and result.k == 10 ** 7
        assert peak < 64_000

    def test_empty_graph_any_k(self):
        assert find_total_coloring(Graph.build(0, []), 0) is not None

    @pytest.mark.parametrize("search,g,k", [
        (find_total_coloring, path_graph(3), 5.0),
        (find_total_coloring, path_graph(3), True),
        (find_edge_coloring, complete_graph(4), 3.5),
    ], ids=["total-float", "total-bool", "edge-float"])
    def test_k_must_be_an_integer(self, search, g, k):
        # a float k escaped as a TypeError from a shift, and True read as 1
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k!r}$"):
            search(g, k)

    def test_scan_from_chi_total_agrees(self):
        for g in atlas():
            k = chi_total_exact(g)
            while find_total_coloring(g, k, distinguishing=True) is None:
                k += 1
            assert chi_at_exact(g) == k, write_graph6(g)


def odd_regular_graphs():
    """Every connected regular graph of odd order with an edge on at most 6
    vertices, then K7 and the odd cycles C3-C19."""
    graphs = [g for n in (3, 5) for g in connected_graphs(n)
              if len({len(nbrs) for nbrs in g.adjacency}) == 1]
    return graphs + [complete_graph(7)] + [cycle_graph(n) for n in range(3, 20, 2)]


class TestParityExit:
    """On a Δ-regular graph of odd order n, k = Δ + 2 gives no distinguishing
    total colouring once 2n > (Δ + 2)(2α − 1); the search is then skipped."""

    def test_fires_on_exactly_the_odd_cliques(self, monkeypatch):
        searched = []
        monkeypatch.setattr(exact, "_search",
                            lambda steps, n, k: searched.append(n))
        fired = set()
        for g in odd_regular_graphs():
            searched.clear()
            assert find_total_coloring(g, g.max_degree + 2, True) is None
            if not searched:
                fired.add(write_graph6(g))
            assert exact._parity_count_excludes(g, g.max_degree + 2) == (not searched)
        assert fired == {write_graph6(complete_graph(n)) for n in (3, 5, 7)}

    def test_exit_agrees_with_the_search(self, monkeypatch):
        # the exit only answers what the search would: K3 and K5 have no
        # distinguishing colouring at Δ + 2, searched in full
        monkeypatch.setattr(exact, "_parity_count_excludes", lambda g, k: False)
        for n in (3, 5):
            g = complete_graph(n)
            assert find_total_coloring(g, n + 1, True) is None
            assert find_total_coloring(g, n + 2, True) is not None

    def test_only_at_delta_plus_two(self):
        g = complete_graph(5)
        assert [k for k in range(12) if exact._parity_count_excludes(g, k)] == [6]
        assert not exact._parity_count_excludes(complete_graph(6), 7)
        assert not exact._parity_count_excludes(path_graph(3), 4)

    def test_k7_returns_at_once(self):
        # 49 s before the exit, nearly all of it in the k = 8 search
        start = time.perf_counter()
        assert chi_at_exact(complete_graph(7)) == 9
        assert time.perf_counter() - start < 1.0

    def test_exact_small_corpus_values_unchanged(self):
        data = json.loads(EXACT_SMALL.read_text())
        recorded = data["connected_up_to_6"] + data["gnp12_p035_seeds_0_to_11"]
        assert len(recorded) == 155
        assert [chi_at_exact(parse_graph6(line)) for line, _ in recorded] == \
            [value for _, value in recorded]


class TestConjectureScan:
    def test_small_corpus(self):
        lines = [write_graph6(complete_graph(3)), "",
                 write_graph6(path_graph(4)),
                 write_graph6(complete_graph(5))]
        report = check_conjecture(lines)
        assert len(report.records) == 3
        assert report.violations == ()
        by6 = {r.graph6: r for r in report.records}
        k5 = by6[write_graph6(complete_graph(5))]
        assert k5.chi_at == 7 and k5.slack == 0
        # triangles and K_5 both meet the bound with equality
        assert [r.graph6 for r in report.tight] == [
            write_graph6(complete_graph(3)), k5.graph6]

    def test_record_fields(self):
        report = check_conjecture([write_graph6(complete_graph(3))])
        rec = report.records[0]
        assert (rec.n, rec.delta, rec.chi_at, rec.slack) == (3, 2, 5, 0)

    def test_parse_error_names_line(self):
        with pytest.raises(Graph6Error, match="line 2"):
            check_conjecture(["C~", "C\x01"])

    def test_parse_error_names_offset_once(self):
        # the re-raise appended " (byte 2)" to a message that already had it
        with pytest.raises(Graph6Error) as info:
            check_conjecture(["C~", "D~"])
        assert str(info.value) == ("line 2: truncated bit vector: expected 2 "
                                   "bytes, found 1 (byte 2)")
        assert info.value.offset == 2

    def test_capacity_error_names_line(self):
        with pytest.raises(CapacityError, match="line 1"):
            check_conjecture([write_graph6(complete_graph(10))])

    @pytest.mark.parametrize("line", [None, 3, b"D~{"], ids=["None", "int", "bytes"])
    def test_non_str_line_names_line(self, line):
        # None and 3 raised AttributeError from strip, and bytes a TypeError
        # from startswith; neither named the line
        with pytest.raises(TypeError, match=f"^line 3: expected a str, got "
                                             f"{type(line).__name__}$"):
            check_conjecture(["C~", "", line])


def refinement_hash(g):
    """Colour refinement from the degrees, n rounds: a vertex's new colour
    hashes its colour and its neighbours' sorted colours. Isomorphic graphs
    get equal sorted colour lists."""
    colour = [len(nbrs) for nbrs in g.adjacency]
    for _ in range(g.n):
        colour = [hash((colour[v], tuple(sorted(colour[w] for w in nbrs))))
                  for v, nbrs in enumerate(g.adjacency)]
    return tuple(sorted(colour))


class TestCorpus7:
    """``tests/data/connected_7.g6``: one line per connected graph on 7
    vertices up to isomorphism."""

    def test_count(self):
        graphs = corpus_7()
        # 853 classes of connected graphs on 7 vertices (OEIS A001349)
        assert len(graphs) == 853
        assert all(g.n == 7 and _connected(g) for g in graphs)

    def test_pairwise_non_isomorphic(self):
        # canonical forms cost 7! relabellings each, so they are compared
        # only inside a bucket of equal degree sequences and refinement hashes
        buckets = defaultdict(list)
        for g in corpus_7():
            buckets[tuple(sorted(map(len, g.adjacency))), refinement_hash(g)].append(g)
        shared = [group for group in buckets.values() if len(group) > 1]
        for group in shared:
            forms = {canonical_form(g.n, frozenset(g.edges)) for g in group}
            assert len(forms) == len(group), [write_graph6(g) for g in group]

    def test_conjecture_scan(self):
        report = check_conjecture(CORPUS_7.read_text().splitlines())
        assert len(report.records) == 853 and report.violations == ()
        assert [(r.graph6, r.delta, r.chi_at) for r in report.tight] == [("F~~~w", 6, 9)]
        assert parse_graph6("F~~~w") == complete_graph(7)


class TestNoReferenceCycles:
    """A finished search leaves nothing for the cyclic collector: the
    backtracker's state is freed by reference counting, so a command run
    with the collector paused does not pile up garbage over a corpus."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    @pytest.mark.parametrize("call", [
        lambda: check_conjecture([write_graph6(random_gnp(10, 0.4, s)) for s in range(20)]),
        lambda: chi_at_exact(complete_graph(5)),
        lambda: find_edge_coloring(complete_graph(5), 5),
    ], ids=["check_conjecture", "chi_at_K5", "edge_coloring_K5"])
    def test_collect_finds_nothing(self, call):
        call()
        assert gc.collect() == 0


@given(st.integers(2, 5), st.integers(0, 99))
@settings(max_examples=25, deadline=None)
def test_exact_agrees_with_brute_on_random(n, seed):
    g = random_gnp(n, 0.5, seed)
    assert chi_total_exact(g) == brute_chi_total(g)
    assert chi_at_exact(g) == brute_chi_at(g)
