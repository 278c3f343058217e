"""Graph container, formats, generators, and the degree split."""

import hashlib
import json
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdtotal import (CapacityError, DimacsError, Graph, Graph6Error,
                      complete_bipartite_graph, complete_graph, cycle_graph,
                      degree_split, greedy_total, normalize_edge, parse_dimacs,
                      parse_graph6, path_graph, random_gnp, random_regular,
                      star_graph, to_document, write_graph6)
from avdtotal import graphs as graphs_mod

from helpers import (canonical_form, connected_graphs, reference_build,
                     reference_graph6_body)


def small_graphs(max_n=10):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(
            Graph.build,
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, max(n - 1, 0)),
                          st.integers(0, max(n - 1, 0))).filter(
                    lambda e: e[0] != e[1]),
                max_size=min(n * (n - 1) // 2, 20))
            if n >= 2 else st.just([])))


class TestGraphBasics:
    def test_normalize_edge_orders_endpoints(self):
        assert normalize_edge(3, 1) == (1, 3)
        assert normalize_edge(1, 3) == (1, 3)

    def test_build_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.build(3, [(1, 1)])

    def test_build_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.build(3, [(0, 3)])

    def test_build_rejects_negative_n(self):
        with pytest.raises(ValueError):
            Graph.build(-1, [])

    @pytest.mark.parametrize("edges, bad", [
        ([(True, 0), (1, 2)], "True"),
        ([(0, 1), (1, False)], "False"),
        ([(0, 1.0)], "1.0"),
        ([(1.5, 2)], "1.5"),
        ([("0", 1)], "'0'"),
        ([(0, None)], "None"),
        (((0, 1), (np.float64(2.0), 1)), "np.float64(2.0)"),
    ], ids=repr)
    def test_build_rejects_non_integer_endpoints(self, edges, bad):
        # (True, 0) built a document whose [0, true] edge from_document
        # rejected; '0' and None escaped as TypeError
        with pytest.raises(ValueError, match=r"^edge endpoint must be an integer, got "
                           + re.escape(bad) + "$"):
            Graph.build(3, edges)

    @pytest.mark.parametrize("n", [True, 3.0, "3"], ids=repr)
    def test_build_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer"):
            Graph.build(n, [])

    @pytest.mark.parametrize("edges, wrap", [
        ([(np.int64(0), np.int64(1)), (1, 2)], list),
        ([(np.uint8(2), 1), (np.int32(0), 1)], tuple),
        ([(0, np.int16(1)), (np.int64(2), 1)], iter),
        ([(0, 1), (2, 1)], lambda edges: (e for e in edges)),
    ], ids=["int64", "uint8-int32", "iterator", "generator"])
    def test_build_takes_index_integer_endpoints(self, edges, wrap):
        # numpy endpoints used to reach the edge tuple, and to_document's
        # output then failed json.dumps
        g = Graph.build(np.int64(3), wrap(edges))
        assert g == Graph.build(3, [(0, 1), (1, 2)])
        assert {type(x) for e in g.edges for x in e} == {int} and type(g.n) is int
        assert g.adjacency == ((1,), (0, 2), (1,))
        json.dumps(to_document(g, greedy_total(g)))

    def test_duplicate_edges_collapse(self):
        g = Graph.build(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edges == ((0, 1),)

    def test_accessors_on_path(self):
        g = path_graph(4)
        assert g.degree(0) == 1 and g.degree(1) == 2
        assert g.neighbors(1) == (0, 2)
        assert g.has_edge(2, 1) and not g.has_edge(0, 2)
        assert g.incident_edges(1) == [(0, 1), (1, 2)]
        assert g.max_degree == 2

    def test_empty_graph(self):
        g = Graph.build(0, [])
        assert g.n == 0 and g.edges == () and g.max_degree == 0

    @given(small_graphs())
    def test_adjacency_is_sorted_and_symmetric(self, g):
        for v in range(g.n):
            nb = g.neighbors(v)
            assert list(nb) == sorted(nb)
            for w in nb:
                assert v in g.neighbors(w)


@st.composite
def edge_lists(draw, max_n=30):
    """A vertex count and a list of non-loop pairs, repeats and both
    endpoint orders allowed."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=80))
    return n, pairs


def fields(g):
    return g.edges, g.adjacency, g.edge_set, g.max_degree


class TestBuildAgainstReference:
    """Graph.build in any input order equals a set-and-sort reference."""

    @given(edge_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_any_order_and_repeats(self, case, rnd):
        n, pairs = case
        ref = reference_build(n, pairs)
        ordered = list(ref[0])
        shuffled = pairs[:]
        rnd.shuffle(shuffled)
        flipped = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in shuffled]
        for edges in (pairs, ordered, ordered[::-1], shuffled + ordered,
                      flipped + flipped[::-1], [(v, u) for u, v in ordered]):
            g = Graph.build(n, edges)
            assert fields(g) == ref
            assert all(type(a) is tuple for a in g.adjacency)

    @given(edge_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_shuffled_dimacs(self, case, rnd):
        n, pairs = case
        lines = [f"e {u + 1} {v + 1}" for u, v in pairs + pairs[:3]]
        rnd.shuffle(lines)
        text = "\n".join([f"p edge {n} {len(lines)}", *lines]) + "\n"
        g = parse_dimacs(text)
        assert g == Graph.build(n, pairs)
        assert fields(g) == reference_build(n, pairs)

    def test_sorted_generators(self):
        for g in (random_gnp(60, 0.2, 3), complete_graph(9),
                  complete_bipartite_graph(4, 5), star_graph(6), cycle_graph(7)):
            assert fields(g) == reference_build(g.n, g.edges)


class TestEndpointArray:
    """``Graph._ends``: the edges as a read-only (m, 2) int64 array, built
    once, or handed over by ``random_gnp``."""

    @given(small_graphs(12))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_the_edges(self, g):
        ends = g._ends
        assert ends.dtype == np.int64 and ends.shape == (len(g.edges), 2)
        assert list(map(tuple, ends.tolist())) == list(g.edges)
        assert g._ends is ends
        with pytest.raises(ValueError):
            ends[:1] = 0

    @pytest.mark.parametrize("n", [0, 1, 2, 300])
    @pytest.mark.parametrize("p", [0, 0.3, 1])
    def test_random_gnp_equals_build(self, n, p):
        # random_gnp assembles its graph without Graph.build's checks
        g = random_gnp(n, p, 5)
        built = Graph.build(n, list(g.edges))
        assert g == built and fields(g) == fields(built)
        assert all(type(x) is int for e in g.edges for x in e)
        assert all(type(a) is tuple for a in g.adjacency)
        assert "_ends" in vars(g)  # handed over, not built on reading
        assert g._ends.dtype == np.int64 and g._ends.shape == (len(g.edges), 2)
        assert np.array_equal(g._ends, built._ends)
        assert not g._ends.flags.writeable


class TestDegreeSplit:
    def test_regular_graph_all_high(self):
        g = cycle_graph(5)
        split = degree_split(g)
        assert split.high == frozenset(range(5)) and not split.low

    def test_star_leaves_low_centre_high(self):
        g = star_graph(4)
        split = degree_split(g)
        assert split.high == frozenset({0})
        assert split.low == frozenset({1, 2, 3, 4})

    def test_edgeless_all_low(self):
        g = Graph.build(3, [])
        split = degree_split(g)
        assert split.low == frozenset({0, 1, 2})

    def test_boundary_vertex_is_low(self):
        # deg(v) = 2, max degree 4: 2*2 <= 4 holds, so v is low.
        g = Graph.build(6, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 1), (5, 2)])
        assert 5 in degree_split(g).low

    @given(small_graphs())
    def test_partition(self, g):
        split = degree_split(g)
        assert split.low | split.high == frozenset(range(g.n))
        assert not (split.low & split.high)
        for v in split.low:
            assert 2 * g.degree(v) <= g.max_degree
        for v in split.high:
            assert 2 * g.degree(v) > g.max_degree


class TestGraph6:
    # Byte values computed by hand from the format definition.
    def test_known_strings(self):
        assert write_graph6(complete_graph(4)) == "C~"
        assert write_graph6(path_graph(4)) == "Ch"
        assert write_graph6(cycle_graph(4)) == "Cl"
        assert write_graph6(complete_graph(5)) == "D~{"

    def test_parse_known(self):
        g = parse_graph6("D~{")
        assert g.n == 5 and len(g.edges) == 10

    def test_parse_skips_header(self):
        assert parse_graph6(">>graph6<<C~").edges == complete_graph(4).edges

    def test_parse_rejects_empty(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    @pytest.mark.parametrize("text", [">>graph6<<", ">>graph6<<\n", "  >>graph6<<  "])
    def test_parse_rejects_header_only(self, text):
        # the header was stripped and the empty rest indexed: IndexError
        with pytest.raises(Graph6Error, match="empty") as exc:
            parse_graph6(text)
        assert exc.value.offset == 10

    def test_parse_rejects_bad_alphabet(self):
        # \x7f is not whitespace, so it reaches the alphabet check
        message = r"^character '\\x7f' outside graph6 alphabet \(byte 1\)$"
        with pytest.raises(Graph6Error, match=message) as exc:
            parse_graph6("C\x7f")
        assert exc.value.offset == 1

    def test_parse_rejects_truncation(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D~")

    def test_parse_rejects_trailing(self):
        with pytest.raises(Graph6Error):
            parse_graph6("C~~")

    @pytest.mark.parametrize("body, offset, message", [
        ("", 0, "empty"),
        ("D~!", 2, "alphabet"),
        ("~", 0, "extended"),
        ("D~", 2, "truncated"),
        ("D~{x", 3, "stray"),
    ], ids=["empty", "alphabet", "extended", "truncated", "stray"])
    def test_offset_counts_header(self, body, offset, message):
        # the header's ten bytes were left out of every offset but the
        # header-only one: '>>graph6<<D~' reported byte 2
        offsets = []
        for text in (body, ">>graph6<<" + body):
            with pytest.raises(Graph6Error, match=message) as exc:
                parse_graph6(text)
            assert str(exc.value).endswith(f"(byte {exc.value.offset})")
            offsets.append(exc.value.offset)
        assert offsets == [offset, offset + 10]

    def test_round_trip_63_vertices(self):
        # 63 vertices is the first size past the one-byte header
        assert write_graph6(Graph.build(62, []))[0] == "}"
        for g in (Graph.build(63, []), complete_graph(63), random_gnp(63, 0.5, 63)):
            s = write_graph6(g)
            assert s.startswith("~??~") and parse_graph6(s) == g

    # the examples of the graph6 format description, and each header's ends
    @pytest.mark.parametrize("n,header", [
        (0, "?"), (30, "]"), (62, "}"), (63, "~??~"), (12345, "~B?x"),
        (258047, "~}~~"), (258048, "~~???~??"), (460175067, "~~?ZZZZZ"),
        ((1 << 36) - 1, "~~~~~~~~"),
    ])
    def test_size_headers(self, n, header):
        assert graphs_mod._g6_header(n) == header
        # too short a body names the size read from the header
        nbytes = (n * (n - 1) // 2 + 5) // 6
        if nbytes:
            with pytest.raises(Graph6Error, match=f"expected {nbytes} bytes, found 0"):
                parse_graph6(header)

    def test_size_beyond_the_long_header(self):
        with pytest.raises(CapacityError, match=f"at most {(1 << 36) - 1} vertices"):
            graphs_mod._g6_header(1 << 36)

    @pytest.mark.parametrize("body, offset", [
        ("~", 0), ("~??", 0), ("~~", 0), ("~~?????", 0), (">>graph6<<~~??", 10),
    ])
    def test_truncated_size_header(self, body, offset):
        with pytest.raises(Graph6Error, match="truncated extended size header") as exc:
            parse_graph6(body)
        assert exc.value.offset == offset

    def test_longer_header_than_needed_still_reads(self):
        # the writer picks the shortest header, the reader takes any
        assert parse_graph6("~???") == Graph.build(0, [])
        assert parse_graph6("~~?????C~") == complete_graph(4)

    @given(n=st.integers(63, 300), p=st.floats(0, 1), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_extended(self, n, p, seed):
        g = random_gnp(n, p, seed)
        s = write_graph6(g)
        assert s == graphs_mod._g6_header(n) + reference_graph6_body(n, g.edges)
        assert s[0] == "~" and parse_graph6(s) == g
        assert write_graph6(parse_graph6(">>graph6<<" + s + "\n")) == s

    def test_padding_bits_ignored(self):
        # the bits past n(n - 1)/2 that fill the last character
        assert parse_graph6("B~") == complete_graph(3)
        assert parse_graph6("~??~" + "~" * 326) == complete_graph(63)

    def test_large_round_trip(self):
        # both directions walked all n(n - 1)/2 pairs in Python: about 13 s
        # each way for this graph of 42 000 edges
        g = random_gnp(5000, 0.004, 7)
        t0 = time.perf_counter()
        h = parse_graph6(write_graph6(g))
        assert time.perf_counter() - t0 < 1.0
        assert h == g

    @given(small_graphs(max_n=12))
    @settings(max_examples=60)
    def test_round_trip(self, g):
        assert parse_graph6(write_graph6(g)) == g

    def test_round_trip_all_connected_n4(self):
        for g in connected_graphs(4):
            assert parse_graph6(write_graph6(g)) == g

    # SHA-256 of the "\n"-joined strings, recorded from the writer that
    # packed each six-bit group by hand: every connected graph on 1..6
    # vertices, then random_gnp(n, 0.5, n) for n = 0..62
    WRITER_DIGEST = "dd5bb3712a18199fede400bcbefba96d43e25734b0fbf0dbf06894dc016625bf"

    def test_writer_bytes_pinned(self):
        lines = [write_graph6(g) for n in range(1, 7) for g in connected_graphs(n)]
        lines += [write_graph6(random_gnp(n, 0.5, n)) for n in range(63)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.WRITER_DIGEST
        assert all(write_graph6(parse_graph6(s)) == s for s in lines)


# pieces of DIMACS text: mostly the single-spaced, newline-broken form the
# array reader takes, mixed with every spelling only the line reader judges
_BREAKS = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0c", "\x0b", "\x85", "\u2028"])
_GAPS = st.sampled_from([" "] * 8 + ["  ", "\t", "\u3000", "\xa0"])
_NOISE = st.sampled_from(["", "c", "c a comment", "comment", "  c indented", "\t",
                          "q 1 2", "p edge 3 1", "e", "e 1", "e 1 2 3"])
# tokens the array reader refuses: no ASCII digit run, or more than 18 digits
_ODD_TOKENS = st.sampled_from(["x", "-1", "+1", "1_0", "\u00b2", "\uff12",
                               "9" * 20, "0" * 19 + "1"])


@st.composite
def dimacs_texts(draw):
    n = draw(st.integers(0, 7))

    def number(value):  # an odd token stays as it is
        if isinstance(value, str):
            return value
        return "0" * draw(st.sampled_from([0, 0, 0, 1, 2])) + str(value)

    def record(*tokens):
        return tokens[0] + "".join(draw(_GAPS) + t for t in tokens[1:])

    # mostly distinct endpoints in range, in either order; now and then a
    # self-loop, an endpoint out of range or an odd token
    distinct = (st.tuples(st.integers(1, n), st.integers(1, n - 1)).map(
        lambda uv: (uv[0], uv[1] + (uv[1] >= uv[0]))) if n >= 2 else st.nothing())
    endpoint = st.one_of(st.integers(0, n + 1), _ODD_TOKENS)
    pair = st.one_of([distinct] * 8 + [st.tuples(endpoint, endpoint)])
    edge = pair.map(lambda ab: record("e", *map(number, ab)))
    lines = draw(st.lists(st.sampled_from(["", "c", "c x", "comment"]), max_size=2))
    lines.append(record("p", "edge", number(n), number(draw(st.integers(0, 9)))))
    lines += draw(st.lists(st.one_of([edge] * 6 + [_NOISE]), max_size=12))
    if draw(st.integers(0, 9)) == 0:
        del lines[draw(st.integers(0, len(lines) - 1))]
    breaks = [draw(_BREAKS) for _ in lines]
    if breaks and draw(st.booleans()):
        breaks[-1] = ""
    return "".join(line + br for line, br in zip(lines, breaks))


class TestDimacs:
    def test_basic(self):
        text = "c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
        g = parse_dimacs(text)
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_duplicate_edges_collapse(self):
        g = parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")
        assert g.edges == ((0, 1),)

    def test_missing_problem_line(self):
        with pytest.raises(DimacsError):
            parse_dimacs("e 1 2\n")

    def test_edge_out_of_range(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 2 1\ne 1 3\n")

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 2 1\ne 1 1\n")

    def test_unknown_record(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 2 1\nq 1 2\n")

    def test_duplicate_problem_line(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 2 0\np edge 2 0\n")

    # spellings int() takes but DIMACS does not: underscores, other
    # scripts' digits and signs
    @pytest.mark.parametrize("text,message", [
        ("p edge 1_0 1\ne 1 2\n", "line 1: non-integer problem sizes"),
        ("p edge \uff15 1\ne 1 2\n", "line 1: non-integer problem sizes"),
        ("p edge 3 -1\n", "line 1: non-integer problem sizes"),
        ("p edge +3 1\n", "line 1: non-integer problem sizes"),
        ("p edge -3 1\n", "line 1: non-integer problem sizes"),
        ("p edge 12 1\ne 1_1 2\n", "line 2: non-integer endpoints"),
        ("p edge 12 1\ne 1 \uff12\n", "line 2: non-integer endpoints"),
        ("p edge 3 1\ne +1 2\n", "line 2: non-integer endpoints"),
    ], ids=["underscore-n", "fullwidth-n", "negative-m", "plus-n", "negative-n",
            "underscore-endpoint", "fullwidth-endpoint", "plus-endpoint"])
    def test_only_ascii_digit_runs(self, text, message):
        with pytest.raises(DimacsError, match=f"^{message}$"):
            parse_dimacs(text)

    @pytest.mark.parametrize("text,message", [
        ("p edge 3\n", "line 1: expected 'p edge <n> <m>'"),
        ("p edge 2 1\ne 1\n", "line 2: expected 'e <u> <v>'"),
        ("c comments only\n\n", "missing problem line 'p edge <n> <m>'"),
    ], ids=["short-problem-line", "short-edge-line", "no-problem-line"])
    def test_malformed_records(self, text, message):
        with pytest.raises(DimacsError, match=f"^{message}$"):
            parse_dimacs(text)

    # every DimacsError parse_dimacs raises, message and line number exact,
    # including which check wins when a line breaks several rules
    @pytest.mark.parametrize("text,message", [
        ("p edge 2 0\np edge 2 0\n", "line 2: duplicate problem line"),
        ("p edge 2 0\np edge\n", "line 2: duplicate problem line"),
        ("c x\n\np edge 2\n", "line 3: expected 'p edge <n> <m>'"),
        ("p\n", "line 1: expected 'p edge <n> <m>'"),
        ("p graph 2 1\n", "line 1: expected 'p edge <n> <m>'"),
        ("p edge 2 1 1\n", "line 1: expected 'p edge <n> <m>'"),
        ("\n  p edge 2 x\n", "line 2: non-integer problem sizes"),
        ("p edge ² 1\n", "line 1: non-integer problem sizes"),
        ("e 1 2\n", "line 1: edge before problem line"),
        ("e\np edge 2 1\n", "line 1: edge before problem line"),
        ("p edge 2 1\n\ne 1 2 3\n", "line 3: expected 'e <u> <v>'"),
        ("p edge 2 1\ne\n", "line 2: expected 'e <u> <v>'"),
        ("p edge 2 1\ne 1 x\n", "line 2: non-integer endpoints"),
        ("p edge 2 1\ne -1 2\n", "line 2: non-integer endpoints"),
        ("p edge 2 1\ne 1 ²\n", "line 2: non-integer endpoints"),
        ("p edge 2 1\ne ¹ 2\n", "line 2: non-integer endpoints"),
        ("p edge 2 1\ne 2 2\n", "line 2: self-loop at vertex 2"),
        ("p edge 2 1\r\ne 01 1\r\n", "line 2: self-loop at vertex 1"),
        ("p edge 2 1\x0ce 0 0\n", "line 2: self-loop at vertex 0"),
        ("p edge 2 1\ne 0 1\n", "line 2: endpoint out of range"),
        ("p edge 2 1\ne 1 3\n", "line 2: endpoint out of range"),
        ("p edge 2 1\nx 1 2\n", "line 2: unrecognised record 'x'"),
        ("p edge 2 1\nedge 1 2\n", "line 2: unrecognised record 'edge'"),
        ("  c indented comment\np edge 2 1\nE 1 2\n", "line 3: unrecognised record 'E'"),
        ("p edge 2 1\né 1 2\n", "line 2: unrecognised record 'é'"),
        ("", "missing problem line 'p edge <n> <m>'"),
        ("comment\ncx 1 2\n\t\n", "missing problem line 'p edge <n> <m>'"),
        # int64 would saturate this endpoint at 2**63 - 1, in range for no n
        ("p edge 3 1\ne 1 99999999999999999999\n", "line 2: endpoint out of range"),
        # lo * n + hi would overflow int64 at this n
        ("p edge 99999999999999999999 1\ne 1 1\n", "line 2: self-loop at vertex 1"),
    ])
    def test_every_error_pinned(self, text, message):
        with pytest.raises(DimacsError) as exc:
            parse_dimacs(text)
        assert str(exc.value) == message

    def test_comments_are_lines_whose_first_token_starts_with_c(self):
        text = "c\ncomment\n  c, too\np edge 3 2\ncc 1 1\ne 1 2\n\t\ncx\ne 2 3\n"
        assert parse_dimacs(text).edges == ((0, 1), (1, 2))

    def test_leading_zeros_are_digits(self):
        assert parse_dimacs("p edge 03 1\ne 01 003\n").edges == ((0, 2),)

    @pytest.mark.parametrize("text", [
        "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n",
        "c header\n\ncomment\np edge 4 0\n",
        "p edge 0 0",
        "p edge 04 5\r\ne 4 1\r\ne 02 3\r\ne 1 4\r\ne 3 2\r\ne 1 3",
    ], ids=["sorted", "no-edges", "empty-graph", "reversed-duplicates-crlf"])
    def test_plain_text_skips_the_line_reader(self, text, monkeypatch):
        expected = graphs_mod._parse_dimacs_lines(text)

        def refuse(text):
            raise AssertionError("plain text reached the line reader")

        monkeypatch.setattr(graphs_mod, "_parse_dimacs_lines", refuse)
        g = parse_dimacs(text)
        assert (g.edges, g.adjacency, g._ends.tolist()) == (
            expected.edges, expected.adjacency, [list(e) for e in expected.edges])

    @given(dimacs_texts())
    @settings(max_examples=300, deadline=None)
    def test_readers_agree(self, text):
        def read(reader):
            try:
                g = reader(text)
            except DimacsError as exc:
                return str(exc)
            ends = g._ends
            return (g.n, g.edges, g.adjacency, g.max_degree, ends.dtype, ends.flags.writeable,
                    ends.tolist() == [list(e) for e in g.edges])

        assert read(parse_dimacs) == read(graphs_mod._parse_dimacs_lines)


class TestGenerators:
    def test_path_shape(self):
        g = path_graph(5)
        assert len(g.edges) == 4 and g.max_degree == 2

    def test_cycle_shape(self):
        g = cycle_graph(6)
        assert len(g.edges) == 6
        assert all(g.degree(v) == 2 for v in range(6))

    def test_cycle_minimum(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete_shape(self):
        g = complete_graph(6)
        assert len(g.edges) == 15 and g.max_degree == 5

    def test_complete_bipartite_shape(self):
        g = complete_bipartite_graph(2, 3)
        assert len(g.edges) == 6
        assert {g.degree(v) for v in range(2)} == {3}
        assert {g.degree(v) for v in range(2, 5)} == {2}

    def test_star_shape(self):
        g = star_graph(4)
        assert g.degree(0) == 4 and all(g.degree(v) == 1 for v in range(1, 5))

    def test_gnp_extremes(self):
        assert random_gnp(6, 0.0, 1).edges == ()
        assert random_gnp(6, 1.0, 1).edges == complete_graph(6).edges

    def test_gnp_deterministic(self):
        assert random_gnp(20, 0.4, 9).edges == random_gnp(20, 0.4, 9).edges

    def test_gnp_seed_sensitivity(self):
        draws = {random_gnp(20, 0.4, s).edges for s in range(5)}
        assert len(draws) > 1

    # SHA-256 of "n\n" followed by one "u v\n" line per edge, recorded from
    # the generator that listed every vertex pair up front. Sizes above 1449
    # span more than one draw chunk.
    GNP_DIGESTS = {
        (0, 0.5, 0): "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        (1, 0.5, 0): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        (2, 0.5, 0): "1e7a4f32fb9185df1c6fd771a5cf931f03681ea1d0ee5e4efb66e78a58277eeb",
        (2, 1.0, 1): "1e7a4f32fb9185df1c6fd771a5cf931f03681ea1d0ee5e4efb66e78a58277eeb",
        (12, 0.35, 0): "8d01cf3540a6b41f82aa9c33e4cb1f3c6bf774f9d267be9b5025967b58c49115",
        (12, 0.35, 7): "a4e1f261a7643f61c585a672462be679f2ed687e227c7f3c3afa8c8d3b358754",
        (20, 0.0, 3): "5378796307535df3ec8d8b15a2e2dc5641419c3d3060cfe32238c0fa973f7aa3",
        (20, 1.0, 3): "3bc8941d14acb6b88718558dd45a9645a137cd3f1dd1d7e354f4fb7fac1c442e",
        (60, 0.5, 1): "cbb89613352d01b23f48131e2cec259e824f42ba7023d09586596c1eed5e05ac",
        (300, 0.5, 0): "82a9a056b0f9b402884035ba4f76f3a5602d6b6a201dcf2c797d98ed664ed35b",
        (2000, 0.004, 3): "7f598e06ffa450954816311fcbac8cab6a4b66281f22c44962a6ace696132d2b",
    }

    @pytest.mark.parametrize("n, p, seed", sorted(GNP_DIGESTS))
    def test_gnp_edges_pinned(self, n, p, seed):
        g = random_gnp(n, p, seed)
        text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GNP_DIGESTS[(n, p, seed)]

    def test_regular_degrees(self):
        g = random_regular(10, 3, 2)
        assert all(g.degree(v) == 3 for v in range(10))

    def test_regular_parity_rejected(self):
        with pytest.raises(ValueError):
            random_regular(5, 3, 0)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_regular_complete_degree(self, n):
        # d = n - 1 ran the pairing model to its rejection cap from n = 7
        assert random_regular(n, n - 1, 0) == complete_graph(n)

    NON_INTEGER_ARGS = [
        (random_gnp, (True, 0.5, 0), "n"),
        (random_gnp, (5.0, 0.5, 0), "n"),
        (random_gnp, ("5", 0.5, 0), "n"),
        (random_gnp, (5, 0.5, 1.5), "seed"),
        (random_gnp, (5, 0.5, "3"), "seed"),
        (random_gnp, (5, 0.5, False), "seed"),
        (random_gnp, (5, 0.5, None), "seed"),
        (random_regular, (6.0, 2, 0), "n"),
        (random_regular, (6, 2.0, 0), "d"),
        (random_regular, (6, True, 0), "d"),
        (random_regular, (6, 2, 0.5), "seed"),
        (random_regular, (4, 3, 2.5), "seed"),  # the K_n shortcut too
        (path_graph, (2.0,), "n"),
        (path_graph, (True,), "n"),
        (cycle_graph, ("5",), "n"),
        (cycle_graph, (5.0,), "n"),
        (complete_graph, (True,), "n"),
        (complete_graph, (None,), "n"),
        (complete_bipartite_graph, (2, 1.5), "b"),
        (complete_bipartite_graph, (True, 2), "a"),
        (star_graph, (True,), "leaves"),
        (star_graph, (3.0,), "leaves"),
    ]

    @pytest.mark.parametrize("make, args, name", NON_INTEGER_ARGS,
                             ids=[f"{f.__name__}{a}" for f, a, _ in NON_INTEGER_ARGS])
    def test_generators_reject_non_integers(self, make, args, name):
        # n=True built a graph, seed 1.5 ran as seed 1, '3' was accepted,
        # and 5.0 or 6.0 escaped as TypeError; star_graph(True) built
        # K_{1,1}, complete_graph(True) a graph with n=True, and
        # path_graph(2.0), cycle_graph('5') and complete_bipartite_graph(2,
        # 1.5) escaped as TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            make(*args)

    OUT_OF_DOMAIN = [
        (path_graph, (0,), "path needs at least one vertex"),
        (complete_graph, (0,), "complete graph needs at least one vertex"),
        (complete_bipartite_graph, (0, 2), "both sides need at least one vertex"),
        (star_graph, (-1,), "leaf count must be non-negative"),
        (random_gnp, (-1, 0.5, 0), "vertex count must be non-negative"),
        (random_gnp, (5, 1.5, 0), r"edge probability must lie in \[0, 1\]"),
        (random_regular, (5, 5, 0), "need 0 <= d < n"),
    ]

    @pytest.mark.parametrize("make, args, message", OUT_OF_DOMAIN,
                             ids=[f"{f.__name__}{a}" for f, a, _ in OUT_OF_DOMAIN])
    def test_generators_reject_out_of_domain(self, make, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make(*args)

    @pytest.mark.parametrize("p", ["0.5", None, True, False, 1j, [0.5]],
                             ids=repr)
    def test_random_gnp_rejects_non_real_p(self, p):
        # '0.5' and None escaped as TypeError, and True ran as p = 1
        with pytest.raises(ValueError, match=r"^edge probability p must be a real number"):
            random_gnp(5, p, 0)

    @pytest.mark.parametrize("p", [0, 1, 0.5, Fraction(1, 2), np.float64(0.5)],
                             ids=repr)
    def test_random_gnp_takes_real_p(self, p):
        assert random_gnp(6, p, 3) == random_gnp(6, float(p), 3)

    def test_generators_take_index_integers(self):
        assert random_gnp(np.int64(12), 0.35, np.uint64(7)) == random_gnp(12, 0.35, 7)
        assert (random_regular(np.int32(10), np.int64(3), np.int16(2))
                == random_regular(10, 3, 2))
        for g, want in [(path_graph(np.int64(4)), path_graph(4)),
                        (cycle_graph(np.int32(5)), cycle_graph(5)),
                        (complete_graph(np.uint8(4)), complete_graph(4)),
                        (complete_bipartite_graph(np.int64(2), np.int16(3)),
                         complete_bipartite_graph(2, 3)),
                        (star_graph(np.int64(3)), star_graph(3))]:
            assert g == want and type(g.n) is int


def test_connected_enumeration_counts():
    # Classical counts of connected graphs up to isomorphism.
    assert len(connected_graphs(1)) == 1
    assert len(connected_graphs(2)) == 1
    assert len(connected_graphs(3)) == 2
    assert len(connected_graphs(4)) == 6
    assert len(connected_graphs(5)) == 21
    six = connected_graphs(6)
    assert len(six) == 112
    # pairwise non-isomorphic, so with the count every class appears once
    assert len({canonical_form(6, g.edges) for g in six}) == 112
