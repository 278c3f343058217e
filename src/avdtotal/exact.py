"""Exhaustive solvers for small graphs.

One backtracker, ``_search``, serves edge and total colouring. It colours
a list of steps in order, tries colours in ascending order, and
canonicalizes colour classes by allowing a brand-new colour index only
once per level (first-use symmetry breaking). It keeps closed-star
bitmasks: ``smask[v]`` holds the colours on v and its edges, which are
distinct in a proper partial colouring, so the colours banned at an edge
uv are ``smask[u] | smask[v]`` and at a vertex v ``smask[v]`` plus its
neighbours' colours. Edge colouring gives it edge steps only, in
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
None.

``chi_at_exact`` starts its scan at max_degree + 2 when an edge joins two
maximum-degree vertices and at max_degree + 1 otherwise (Zhang et al.,
*On adjacent-vertex-distinguishing total coloring of graphs*, Sci. China
Ser. A 48, 2005): with max_degree + 1 colours both closed stars hold the
whole palette.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .coloring import TotalColoring
from .graphs import CapacityError, Graph, Graph6Error, parse_graph6
from .vizing import EdgeColoring

EDGE_GUARD = 40
ELEMENT_GUARD = 40


def _search(steps: list[tuple], n: int, k: int) -> list[int] | None:
    """The first colouring of the steps' elements with colours 1..k, or None.

    A step is (e, nbrs, touched, pairs, ahead): the element id e, with ids
    0..len(steps) - 1 and vertex v's id v; for a vertex its neighbours,
    None for an edge; the vertices whose closed stars hold e; the vertex
    pairs whose masks must differ once e is coloured; and the look-ahead
    checks of ``_twin_checks``. The result lists the colour of each id.
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
        e, nbrs, touched, pairs, ahead = steps[i]
        # first-use symmetry breaking: at most one colour above top
        allowed = ((top << 2) - 2) & palette
        # vertex and edge steps have their own loops, which keeps the
        # per-candidate work to two or three list updates
        if nbrs is not None:
            banned = smask[e]
            for w in nbrs:
                banned |= bit[w]
            free = allowed & ~banned
            while free:
                b = free & -free
                free ^= b
                bit[e] = b
                smask[e] |= b
                for x, y in pairs:
                    if smask[x] == smask[y]:
                        break
                else:
                    if (not ahead or _last_colour_left(ahead, smask, bit, palette)) and \
                            rec(i + 1, top if b <= top else b):
                        return True
                smask[e] ^= b
            bit[e] = 1
            return False
        u, v = touched
        free = allowed & ~(smask[u] | smask[v])
        while free:
            b = free & -free
            free ^= b
            bit[e] = b
            smask[u] |= b
            smask[v] |= b
            for x, y in pairs:
                if smask[x] == smask[y]:
                    break
            else:
                if (not ahead or _last_colour_left(ahead, smask, bit, palette)) and \
                        rec(i + 1, top if b <= top else b):
                    return True
            smask[u] ^= b
            smask[v] ^= b
        return False

    if not rec(0, 1):
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
    if len(g.edges) > EDGE_GUARD:
        raise CapacityError(f"{len(g.edges)} edges exceed the search guard {EDGE_GUARD}")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k < g.max_degree or k * (g.n // 2) < len(g.edges):
        return None
    edges, degree = g.edges, g.degree
    order = sorted(range(len(edges)),
                   key=lambda j: (-degree(edges[j][0]) - degree(edges[j][1]), j))
    color = _search([(j, None, edges[j], (), ()) for j in order], g.n, k)
    if color is None:
        return None
    return EdgeColoring(colors=dict(zip(edges, color)), k=k)


def chi_prime_exact(g: Graph) -> int:
    """Edge chromatic number; the answer is max_degree or max_degree + 1."""
    if len(g.edges) > EDGE_GUARD:
        raise CapacityError(f"{len(g.edges)} edges exceed the search guard {EDGE_GUARD}")
    if not g.edges:
        return 0
    if find_edge_coloring(g, g.max_degree) is not None:
        return g.max_degree
    return g.max_degree + 1


# ---------------------------------------------------------------------------
# total colouring

def _total_order(g: Graph) -> list[int]:
    """Search order over element ids: vertex v is v, edge j is n + j.

    Descending conflict count (2 deg(v) for a vertex, deg(u) + deg(v) for an
    edge uv), ties broken by rank: each vertex followed by its backward
    edges, so closed stars tend to complete early for the distinguishing
    prune.
    """
    n, adj = g.n, g.adjacency
    idx = {e: n + j for j, e in enumerate(g.edges)}
    conflicts = [2 * len(adj[v]) for v in range(n)]
    conflicts += [len(adj[u]) + len(adj[v]) for u, v in g.edges]
    rank = [0] * len(conflicts)
    counter = 0
    for v in range(n):
        rank[v] = counter
        counter += 1
        for u in adj[v]:
            if u < v:
                rank[idx[(u, v)]] = counter
                counter += 1
    return sorted(range(len(conflicts)), key=lambda e: (-conflicts[e], rank[e]))


def _twin_checks(g: Graph, order: list[int], ends: list[tuple[int, ...]],
                 star_at: list[list[int]], done_at: list[int]) -> list[list[tuple]]:
    """The look-ahead checks of each search position.

    Between its second-last and last star positions a vertex v has one
    uncoloured star element f. A check (v, y, xs, twins) at position i
    lists the equal-degree neighbours w of v whose stars are complete by i;
    f's colour must avoid ``smask[v] | smask[y]`` and the colours of the
    vertices xs (f = vy gives y and no xs, f = v gives y = v and xs = v's
    neighbours). A check is listed only where what it reads can change: v
    enters the one-left state, a twin completes, or the element coloured
    touches y or is a vertex in xs.
    """
    n, adj = g.n, g.adjacency
    checks: list[list[tuple]] = [[] for _ in order]
    for v in range(n):
        last = done_at[v]
        twins = [w for w in adj[v]
                 if len(adj[w]) == len(adj[v]) and done_at[w] < last]
        if not twins:
            continue
        first = star_at[v][-2]
        if order[last] < n:
            y, xs = v, adj[v]
            moved = [i for i in range(first + 1, last) if order[i] in xs]
        else:
            a, b = ends[last]
            y, xs = (a if b == v else b), ()
            moved = [i for i in range(first + 1, last) if y in ends[i]]
        at = {first, *moved, *(done_at[w] for w in twins if done_at[w] > first)}
        for i in sorted(at):
            ready = [w for w in twins if done_at[w] <= i]
            if ready:
                checks[i].append((v, y, xs, ready))
    return checks


def _last_colour_left(ahead: list[tuple], smask: list[int], bit: list[int],
                      palette: int) -> bool:
    """False if some star's last element has no colour that avoids a twin.

    A colour c is free for f if the partial colouring allows it; every
    palette colour counts, since the first-use cap can still rise before
    f's position. c is dropped if it would complete v's set as that of a
    complete twin w, which needs S(v) to be a subset of S(w) (then S(w)
    minus S(v) is the single colour c, as |S(w)| = |S(v)| + 1). Dropped
    colours are in use, and a colour not yet in use is free, so a check
    can fail only once every palette colour is in use.
    """
    for v, y, xs, twins in ahead:
        sv = smask[v]
        drop = 0
        for w in twins:
            sw = smask[w]
            if sw & sv == sv:
                drop |= sw ^ sv
        if drop:
            free = palette & ~(sv | smask[y] | drop)
            for x in xs:
                free &= ~bit[x]
            if not free:
                return False
    return True


def find_total_coloring(g: Graph, k: int,
                        distinguishing: bool = False) -> TotalColoring | None:
    """Proper total colouring with at most k colours, or None.

    With distinguishing=True the colouring must also give adjacent vertices
    distinct colour sets. Below the degree lower bound (max_degree + 1, or
    _chi_at_lower_bound when distinguishing) the answer is None without a
    search.
    """
    t = g.n + len(g.edges)
    if t > ELEMENT_GUARD:
        raise CapacityError(f"{t} elements exceed the search guard {ELEMENT_GUARD}")
    if k < 0:
        raise ValueError("k must be non-negative")
    if t and k < (_chi_at_lower_bound(g) if distinguishing else g.max_degree + 1):
        return None
    n, edges, adj = g.n, g.edges, g.adjacency
    order = _total_order(g)
    ends = [(e,) if e < n else edges[e - n] for e in order]
    # search positions of each closed star's elements, in order
    star_at: list[list[int]] = [[] for _ in range(n)]
    for i, touched in enumerate(ends):
        for v in touched:
            star_at[v].append(i)
    done_at = [at[-1] if at else 0 for at in star_at]
    checks = (_twin_checks(g, order, ends, star_at, done_at) if distinguishing
              else [()] * t)
    steps = []
    for i, e in enumerate(order):
        pairs = []
        if distinguishing:
            # stars completed here against neighbours' completed stars
            # (each pair once); equal masks of complete stars imply equal
            # degrees, since a proper colouring gives a star deg + 1 colours
            for v in ends[i]:
                if done_at[v] == i:
                    pairs += [(v, w) for w in adj[v]
                              if done_at[w] < i or (done_at[w] == i and v < w)]
        steps.append((e, adj[e] if e < n else None, ends[i], pairs, checks[i]))
    color = _search(steps, n, k)
    if color is None:
        return None
    return TotalColoring(
        vertex_colors=tuple(color[:n]),
        edge_colors={e: color[n + j] for j, e in enumerate(edges)},
        k=k,
    )


def chi_total_exact(g: Graph) -> int:
    """Total chromatic number; at least max_degree + 1 on non-empty graphs."""
    t = g.n + len(g.edges)
    if t > ELEMENT_GUARD:
        raise CapacityError(f"{t} elements exceed the search guard {ELEMENT_GUARD}")
    if t == 0:
        return 0
    for k in range(g.max_degree + 1, 2 * g.max_degree + 2):
        if find_total_coloring(g, k) is not None:
            return k
    raise AssertionError("2*max_degree + 1 colours always suffice")


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
    if t > ELEMENT_GUARD:
        raise CapacityError(f"{t} elements exceed the search guard {ELEMENT_GUARD}")
    if t == 0:
        return 0
    for k in range(_chi_at_lower_bound(g), t + 1):
        if find_total_coloring(g, k, distinguishing=True) is not None:
            return k
    raise AssertionError("all-distinct colours are always distinguishing")


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
    records: tuple[GraphRecord, ...]
    violations: tuple[GraphRecord, ...]
    tight: tuple[GraphRecord, ...]


def check_conjecture(lines: Iterable[str]) -> ConjectureReport:
    """Evaluate chi_at <= max_degree + 3 on a stream of graph6 lines.

    Blank lines are skipped. Capacity and parse failures name the offending
    line number.
    """
    records: list[GraphRecord] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
            value = chi_at_exact(g)
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}", exc.offset) from None
        except CapacityError as exc:
            raise CapacityError(f"line {lineno}: {exc}") from None
        records.append(GraphRecord(graph6=text, n=g.n, delta=g.max_degree,
                                   chi_at=value,
                                   slack=g.max_degree + 3 - value))
    recs = tuple(records)
    return ConjectureReport(
        records=recs,
        violations=tuple(r for r in recs if r.slack < 0),
        tight=tuple(r for r in recs if r.slack == 0),
    )
