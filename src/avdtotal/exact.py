"""Exhaustive solvers for small graphs.

One backtracker, ``_search``, serves edge and total colouring. It colours
a list of steps in order, tries colours in ascending order, and
canonicalizes colour classes by allowing a brand-new colour index only
once per level (first-use symmetry breaking). It keeps closed-star
bitmasks: ``smask[v]`` holds the colours on v and its edges, which are
distinct in a proper partial colouring, so the colours banned at an edge
uv are ``smask[u] | smask[v]`` and at a vertex v ``smask[v]`` plus its
neighbours' colours. Each step names the two closed stars its element
joins, (v, v) for a vertex, so vertex and edge steps share one candidate
loop: a node reads both masks once, and restores them and its element's
bit once after the loop. Edge colouring gives it edge steps only, in
descending deg(u) + deg(v) order, after counting exits: k below
max_degree, or k matchings of at most n // 2 edges each too few for the
edge count.

The distinguishing total-colouring search prunes as soon as a vertex whose
closed star is fully coloured has the mask of a completed neighbour. It
also looks ahead: when one element f of v's closed star is left and v has
an equal-degree neighbour w with a complete star, every colour f may still
take (any of 1..k the partial colouring allows) that would give v the set
of such a w is ruled out, and if none is left the subtree is cut. The cut
subtree holds no distinguishing completion, and the order of positions and
colours is unchanged, so the search returns the same first colouring, or
None. ``_plan`` lays out a total colouring's steps: the elements in
``_total_order``, one sort on a packed int key each, and in distinguishing
mode each step's pairs and look-ahead checks, from one pass over that
order that records every closed star's last and second-last positions.

``chi_at_exact`` starts its scan at max_degree + 2 when an edge joins two
maximum-degree vertices and at max_degree + 1 otherwise (Zhang et al.,
*On adjacent-vertex-distinguishing total coloring of graphs*, Sci. China
Ser. A 48, 2005): with max_degree + 1 colours both closed stars hold the
whole palette. On a regular graph of odd order a parity count can rule
out max_degree + 2 as well (``_parity_count_excludes``), which settles
K3, K5 and K7 without a search at that k.

``chi_at_exact`` and ``chi_total_exact`` share one least-k scan, which
decides each k by value: it checks the element guard and builds the plan
once per graph, skips a k the parity count rules out, and takes the first
k at which ``_search`` succeeds, building no colouring. Each k is decided
as ``find_total_coloring`` decides it, so the values are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .coloring import TotalColoring
from .graphs import CapacityError, Graph, Graph6Error, _integer, parse_graph6
from .vizing import EdgeColoring

EDGE_GUARD = 40
ELEMENT_GUARD = 40


def _search(steps: list[tuple], n: int, k: int) -> list[int] | None:
    """The first colouring of the steps' elements with colours 1..k, or None.

    A step is (e, (u, v), nbrs, pairs, ahead): the element id e, with ids
    0..len(steps) - 1 and vertex v's id v; the two closed stars e joins,
    (v, v) for vertex v and (u, v) for edge uv; the vertex neighbours whose
    colours e must avoid, () for an edge; the vertex pairs whose masks must
    differ once e is coloured; and the look-ahead checks of
    ``_plan``. Vertex and edge steps share one candidate loop, and
    each node restores the two masks and e's bit once, after its loop. The
    result lists the colour of each id.
    """
    t = len(steps)
    bit = [1] * t     # colour of each element as a bit; bit 0 while uncoloured
    smask = [0] * n   # bits of the colours on v and its edges
    # first-use symmetry breaking never colours above t, so colours t + 1..k
    # can be left out: no step could take them, nor pass a look-ahead with them
    palette = (2 << min(k, t)) - 2

    def rec(i: int, top: int) -> bool:
        """Colour positions i.. given top, the highest colour bit so far."""
        if i == t:
            return True
        e, (u, v), nbrs, pairs, ahead = steps[i]
        su, sv = smask[u], smask[v]
        banned = su | sv
        for w in nbrs:
            banned |= bit[w]
        # first-use symmetry breaking: at most one colour above top
        free = ((top << 2) - 2) & palette & ~banned
        while free:
            b = free & -free
            free ^= b
            bit[e] = b
            smask[u] = su | b
            smask[v] = sv | b
            for x, y in pairs:
                if smask[x] == smask[y]:
                    break
            else:
                if (not ahead or _last_colour_left(ahead, smask, palette)) and \
                        rec(i + 1, top if b <= top else b):
                    return True
        smask[u] = su
        smask[v] = sv
        bit[e] = 1
        return False

    try:
        found = rec(0, 1)
    finally:
        # rec reaches itself through its closure cell; dropping the name
        # breaks that cycle, so reference counting frees the search state
        del rec
    if not found:
        return None
    return [b.bit_length() - 1 for b in bit]


# ---------------------------------------------------------------------------
# edge colouring

def find_edge_coloring(g: Graph, k: int) -> EdgeColoring | None:
    """Proper edge colouring with at most k colours by exhaustive search.

    Below the counting bounds the answer is None without a search: a
    vertex needs max_degree colours, and each colour class is a matching of
    at most n // 2 edges.
    """
    k = _integer("k", k)
    if len(g.edges) > EDGE_GUARD:
        raise CapacityError(f"{len(g.edges)} edges exceed the search guard {EDGE_GUARD}")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k < g.max_degree or k * (g.n // 2) < len(g.edges):
        return None
    edges, degree = g.edges, g.degree
    order = sorted(range(len(edges)),
                   key=lambda j: (-degree(edges[j][0]) - degree(edges[j][1]), j))
    color = _search([(j, edges[j], (), (), ()) for j in order], g.n, k)
    if color is None:
        return None
    return EdgeColoring(colors=dict(zip(edges, color)), k=k)


def chi_prime_exact(g: Graph) -> int:
    """Edge chromatic number; the answer is max_degree or max_degree + 1."""
    if not g.edges:
        return 0
    if find_edge_coloring(g, g.max_degree) is not None:
        return g.max_degree
    return g.max_degree + 1


# ---------------------------------------------------------------------------
# total colouring

def _total_order(g: Graph) -> list[int]:
    """Search order over element ids: vertex v is v, edge j is n + j.

    Each vertex followed by its backward edges, stably sorted by descending
    conflict count (2 deg(v) for a vertex, deg(u) + deg(v) for an edge uv):
    ties keep the listed order, so closed stars tend to complete early for
    the distinguishing prune. One sort does both: the adjacency lists are
    ascending, so the key (-conflicts, v, u) of edge uv, u < v, and
    (-conflicts, v, -1) of vertex v break ties in the listed order. Each
    key is packed into one int, -conflicts * n(n + 1) + v(n + 1) + u + 1.
    """
    n, adj = g.n, g.adjacency
    base = n + 1
    span = n * base
    keys = [v * base - 2 * len(adj[v]) * span for v in range(n)]
    keys += [v * base + u + 1 - (len(adj[u]) + len(adj[v])) * span
             for u, v in g.edges]
    return sorted(range(len(keys)), key=keys.__getitem__)


def _plan(g: Graph, distinguishing: bool) -> list[tuple]:
    """The steps of ``_search`` for a total colouring of g, in
    ``_total_order``; with the pairs and look-ahead checks of the
    distinguishing search when asked.

    One pass records each closed star's last and second-last positions.
    A vertex v's pairs go to its last position: its neighbours whose stars
    are complete there, each pair once; equal masks of complete stars imply
    equal degrees, since a proper colouring gives a star deg + 1 colours.

    Between its second-last and last positions v has one uncoloured star
    element f. Under ``_total_order`` v precedes every edge to a neighbour
    of equal or smaller degree, so f is v itself only when v has no
    equal-degree neighbour, and a vertex with one has f = vy for a
    neighbour y. A check (v, y, twins) at position i lists the
    equal-degree neighbours w of v whose stars are complete by i; f's
    colour must avoid ``smask[v] | smask[y]``. A check is listed only where
    what it reads can change: v enters the one-left state, a twin
    completes, or the element coloured touches y.
    """
    n, edges, adj = g.n, g.edges, g.adjacency
    order = _total_order(g)
    # each element's two closed stars, and the neighbours whose vertex
    # colours it must avoid, () for an edge
    stars = [(e, e) if e < n else edges[e - n] for e in order]
    nbrs = [adj[e] if e < n else () for e in order]
    if not distinguishing:
        return [(e, uv, vn, [], ()) for e, uv, vn in zip(order, stars, nbrs)]
    # a vertex's own position (v, v) counts twice, so second[v] is wrong
    # only where v ends its star, and then v has no equal-degree neighbour
    # and second[v] is not read
    last, second = [0] * n, [0] * n
    for i, (u, v) in enumerate(stars):
        second[u], last[u] = last[u], i
        second[v], last[v] = last[v], i
    # positions with no pairs or no checks share one empty list, which
    # nothing mutates; a position that gets some is given a new list
    none: list[tuple] = []
    pairs, checks = [none] * len(order), [none] * len(order)
    for v, vn in enumerate(adj):
        i = last[v]
        pairs[i] = pairs[i] + [(v, w) for w in vn
                               if last[w] < i or last[w] == i and v < w]
        d = len(vn)
        twins = [w for w in vn if last[w] < i and len(adj[w]) == d]
        if not twins:
            continue
        first, y = second[v], sum(stars[i]) - v  # v's last element is vy
        moved = [p for p in range(first + 1, i) if y in stars[p]]
        late = [last[w] for w in twins if last[w] > first]
        for p in sorted({first, *moved, *late}):
            ready = [w for w in twins if last[w] <= p]
            if ready:
                checks[p] = checks[p] + [(v, y, ready)]
    return list(zip(order, stars, nbrs, pairs, checks))


def _last_colour_left(ahead: list[tuple], smask: list[int], palette: int) -> bool:
    """False if some star's last element has no colour that avoids a twin.

    A colour c is free for f if the partial colouring allows it; every
    palette colour counts, since the first-use cap can still rise before
    f's position. c is dropped if it would complete v's set as that of a
    complete twin w, which needs S(v) to be a subset of S(w) (then S(w)
    minus S(v) is the single colour c, as |S(w)| = |S(v)| + 1). Dropped
    colours are in use, and a colour not yet in use is free, so a check
    can fail only once every palette colour is in use.
    """
    for v, y, twins in ahead:
        sv = smask[v]
        drop = 0
        for w in twins:
            sw = smask[w]
            if sw & sv == sv:
                drop |= sw ^ sv
        if drop and not palette & ~(sv | smask[y] | drop):
            return False
    return True


def find_total_coloring(g: Graph, k: int,
                        distinguishing: bool = False) -> TotalColoring | None:
    """Proper total colouring with at most k colours, or None.

    With distinguishing=True the colouring must also give adjacent vertices
    distinct colour sets. Below the degree lower bound (max_degree + 1, or
    _chi_at_lower_bound when distinguishing) the answer is None without a
    search, and so it is in distinguishing mode when the parity count of
    ``_parity_count_excludes`` rules k out. Otherwise the search runs, in
    the same order, and returns the same first colouring.
    """
    k = _integer("k", k)
    t = _guarded_elements(g)
    if k < 0:
        raise ValueError("k must be non-negative")
    if t and k < (_chi_at_lower_bound(g) if distinguishing else g.max_degree + 1):
        return None
    if distinguishing and _parity_count_excludes(g, k):
        return None
    color = _search(_plan(g, distinguishing), g.n, k)
    if color is None:
        return None
    return TotalColoring(tuple(color[:g.n]), tuple(color[g.n:]), k, g)


def _parity_count_excludes(g: Graph, k: int) -> bool:
    """Whether counting alone shows that g has no distinguishing total
    colouring with k colours: g is Δ-regular with an edge, its order n is
    odd, k = Δ + 2, and 2n > (Δ + 2)(2α − 1), α the independence number.

    Proof. Each closed star holds Δ + 1 distinct colours, so it misses
    exactly one of the Δ + 2. Adjacent stars have different colour sets of
    equal size, so they miss different colours: the missing colour is a
    proper vertex colouring, with independent classes I_c. Colour class c
    is an independent set V_c of vertices plus a matching that avoids V_c.
    A vertex of I_c holds no c at all, and every vertex outside V_c and
    I_c meets exactly one edge of that matching, so n − |V_c| − |I_c| is
    even. As n is odd, |V_c| + |I_c| is odd, and so at most 2α − 1.
    Summed over the Δ + 2 colours it is 2n, since the V_c and the I_c
    each partition the vertices.

    α is decided only on that path, and only as far as needed: the search
    for an independent set stops at the first one of the least size that
    rules the exit out.
    """
    adj, delta, n = g.adjacency, g.max_degree, g.n
    if not (delta and n % 2 and k == delta + 2
            and all(len(nbrs) == delta for nbrs in adj)):
        return False
    # the least s with (delta + 2)(2s - 1) >= 2n
    least = (-(-2 * n // (delta + 2)) + 2) // 2
    nbr = [sum(1 << w for w in nbrs) for nbrs in adj]
    return not _has_independent_set(nbr, (1 << n) - 1, least)


def _has_independent_set(nbr: list[int], free: int, size: int) -> bool:
    """Whether the vertices in the bitmask free hold an independent set of
    the given size, nbr[v] being v's neighbours as a bitmask; the search
    stops at the first one found."""
    if size == 0:
        return True
    while free.bit_count() >= size:
        low = free & -free
        free ^= low
        if _has_independent_set(nbr, free & ~nbr[low.bit_length() - 1], size - 1):
            return True
    return False


def _guarded_elements(g: Graph) -> int:
    """g's element count, n + m; a CapacityError above ``ELEMENT_GUARD``."""
    t = g.n + len(g.edges)
    if t > ELEMENT_GUARD:
        raise CapacityError(f"{t} elements exceed the search guard {ELEMENT_GUARD}")
    return t


def _least_k(g: Graph, ks: range, distinguishing: bool) -> int:
    """The least k in ks for which find_total_coloring finds a colouring;
    ks must start at or above the mode's degree lower bound, below which
    find_total_coloring exits without a search, and contain the answer.

    Each k is decided as find_total_coloring decides it, by value: the plan
    is built once for every k, and no colouring is built.
    """
    _guarded_elements(g)
    steps = _plan(g, distinguishing)
    for k in ks:
        if not (distinguishing and _parity_count_excludes(g, k)) and \
                _search(steps, g.n, k) is not None:
            return k
    raise AssertionError(f"no colouring with at most {ks[-1]} colours")


def chi_total_exact(g: Graph) -> int:
    """Total chromatic number; at least max_degree + 1 on non-empty graphs,
    and 2 max_degree + 1 colours always suffice."""
    if g.n == 0:
        return 0
    return _least_k(g, range(g.max_degree + 1, 2 * g.max_degree + 2), False)


def _chi_at_lower_bound(g: Graph) -> int:
    """max_degree + 1, plus one if an edge joins two maximum-degree vertices.

    chi_at >= chi_total >= max_degree + 1. With max_degree + 1 colours the
    closed star of a maximum-degree vertex holds every colour, so two
    adjacent ones share the whole palette as their colour set (Zhang et al.,
    Sci. China Ser. A 48, 2005).
    """
    adj, delta = g.adjacency, g.max_degree
    adjacent_pair = any(len(adj[u]) == delta == len(adj[v]) for u, v in g.edges)
    return delta + 1 + adjacent_pair


def chi_at_exact(g: Graph) -> int:
    """Distinguishing total chromatic number by exhaustive search.

    The scan starts at _chi_at_lower_bound. It is bounded above by the
    element count: all-distinct colours give every vertex a colour set
    containing its private vertex colour.
    """
    t = g.n + len(g.edges)
    if t == 0:
        return 0
    return _least_k(g, range(_chi_at_lower_bound(g), t + 1), True)


# ---------------------------------------------------------------------------
# corpus scanning

@dataclass(frozen=True)
class GraphRecord:
    """Exact result for one corpus graph; slack = max_degree + 3 - chi_at."""

    graph6: str
    n: int
    delta: int
    chi_at: int
    slack: int


@dataclass(frozen=True)
class ConjectureReport:
    """The corpus records; violations and tight ones are filtered from them."""

    records: tuple[GraphRecord, ...]

    @property
    def violations(self) -> tuple[GraphRecord, ...]:
        """Records with chi_at > max_degree + 3."""
        return tuple(r for r in self.records if r.slack < 0)

    @property
    def tight(self) -> tuple[GraphRecord, ...]:
        """Records with chi_at = max_degree + 3."""
        return tuple(r for r in self.records if r.slack == 0)


def check_conjecture(lines: Iterable[str]) -> ConjectureReport:
    """Evaluate chi_at <= max_degree + 3 on a stream of graph6 lines.

    Blank lines are skipped. Capacity and parse failures name the offending
    line number, and so does the TypeError that refuses a line that is not
    a str.
    """
    records: list[GraphRecord] = []
    for lineno, raw in enumerate(lines, start=1):
        if not isinstance(raw, str):
            raise TypeError(f"line {lineno}: expected a str, got {type(raw).__name__}")
        text = raw.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
            value = chi_at_exact(g)
        except (Graph6Error, CapacityError) as exc:
            # prefix the finished message: a Graph6Error keeps its offset
            # and its one "(byte N)"
            exc.args = (f"line {lineno}: {exc}",)
            raise
        records.append(GraphRecord(graph6=text, n=g.n, delta=g.max_degree,
                                   chi_at=value,
                                   slack=g.max_degree + 3 - value))
    return ConjectureReport(records=tuple(records))
