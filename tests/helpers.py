"""Shared test oracles.

Everything here re-derives its answer from first principles with code
paths disjoint from the library: set comprehensions instead of
incremental bookkeeping, exact Fraction sums instead of log-space
floats, and permutation canonical forms instead of graph6 strings.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from avdtotal import Graph, TotalColoring


def naive_is_proper(g: Graph, phi: TotalColoring) -> bool:
    for u, v in g.edges:
        if phi.vertex_colors[u] == phi.vertex_colors[v]:
            return False
        c = phi.edge_colors[(u, v)]
        if c == phi.vertex_colors[u] or c == phi.vertex_colors[v]:
            return False
    for v in range(g.n):
        cols = [phi.edge_colors[e] for e in g.incident_edges(v)]
        if len(cols) != len(set(cols)):
            return False
    return True


def naive_color_set(g: Graph, phi: TotalColoring, v: int) -> frozenset[int]:
    return frozenset({phi.vertex_colors[v]}
                     | {phi.edge_colors[e] for e in g.incident_edges(v)})


def naive_is_avd(g: Graph, phi: TotalColoring) -> bool:
    if not naive_is_proper(g, phi):
        return False
    for u, v in g.edges:
        if g.degree(u) == g.degree(v):
            if naive_color_set(g, phi, u) == naive_color_set(g, phi, v):
                return False
    return True


def exact_upper_tail(n: int, p: Fraction, m: int) -> Fraction:
    """Pr[Bin(n, p) >= m] by direct summation."""
    q = 1 - p
    total = Fraction(0)
    for j in range(m, n + 1):
        total += Fraction(_binom(n, j)) * p**j * q**(n - j)
    return total


def exact_lower_tail(n: int, p: Fraction, m: int) -> Fraction:
    """Pr[Bin(n, p) <= m] by direct summation."""
    q = 1 - p
    total = Fraction(0)
    for j in range(0, m + 1):
        total += Fraction(_binom(n, j)) * p**j * q**(n - j)
    return total


def _binom(n: int, k: int) -> int:
    return math.comb(n, k)


def canonical_form(n: int, edges: frozenset[tuple[int, int]]) -> int:
    """Smallest adjacency bitmask over all vertex relabelings."""
    best = None
    for perm in itertools.permutations(range(n)):
        mask = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            if a > b:
                a, b = b, a
            mask |= 1 << (a * n + b)
        if best is None or mask < best:
            best = mask
    return best


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n labelled vertices, one per isomorphism class."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        edges = frozenset(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
        g = Graph.build(n, edges)
        if not _connected(g):
            continue
        key = canonical_form(n, edges)
        if key in seen:
            continue
        seen.add(key)
        out.append(g)
    return out


def _connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == g.n


def elements_clash(g: Graph, a, b) -> bool:
    """Whether two total-colouring elements must receive distinct colours."""
    if isinstance(a, int) and isinstance(b, int):
        return g.has_edge(a, b)
    ta = {a} if isinstance(a, int) else set(a)
    tb = {b} if isinstance(b, int) else set(b)
    return bool(ta & tb)


def enumerate_total_colorings(g: Graph, k: int):
    """Yield every proper total colouring of g with colours in 1..k."""
    elements = list(range(g.n)) + list(g.edges)
    conflicts = []
    for i, a in enumerate(elements):
        conflicts.append([j for j in range(i) if elements_clash(g, a, elements[j])])

    assignment = [0] * len(elements)

    def rec(i: int):
        if i == len(elements):
            vertex_colors = tuple(assignment[:g.n])
            edge_colors = {e: assignment[g.n + j] for j, e in enumerate(g.edges)}
            yield TotalColoring(vertex_colors, edge_colors, k)
            return
        banned = {assignment[j] for j in conflicts[i]}
        for c in range(1, k + 1):
            if c not in banned:
                assignment[i] = c
                yield from rec(i + 1)
        assignment[i] = 0

    yield from rec(0)


def reference_greedy_total(g: Graph, order) -> TotalColoring:
    """First fit along ``order``, rebuilding each forbidden set from scratch.

    Vertices are ints and edges are endpoint pairs in either orientation.
    Every element's forbidden set is every coloured element it clashes with,
    found by scanning everything coloured so far.
    """
    colored: dict = {}
    for item in order:
        key = item if isinstance(item, int) else tuple(sorted(item))
        banned = {c for other, c in colored.items() if elements_clash(g, key, other)}
        c = 1
        while c in banned:
            c += 1
        colored[key] = c
    vertex_colors = tuple(colored[v] for v in range(g.n))
    edge_colors = {e: colored[e] for e in g.edges}
    k = max(colored.values(), default=1)
    return TotalColoring(vertex_colors, edge_colors, k)


def _restricted_set(g: Graph, phi: TotalColoring, deleted, v: int) -> frozenset[int]:
    return frozenset({phi.vertex_colors[v]}
                     | {phi.edge_colors[e] for e in g.incident_edges(v)
                        if e not in deleted})


def reference_bulk_events(g: Graph, phi: TotalColoring, selected, m: int,
                          d: int, eps: Fraction) -> list[tuple]:
    """Bulk-stage bad events, recounting every set and degree per query."""
    high = {v for v in range(g.n) if 2 * g.degree(v) > g.max_degree}

    def degsel(v):
        return sum(1 for e in g.incident_edges(v) if e in selected)

    events = []
    for u, v in g.edges:
        if (u in high and v in high and g.degree(u) == g.degree(v)
                and (degsel(u) >= m or degsel(v) >= m)
                and len(_restricted_set(g, phi, selected, u)
                        ^ _restricted_set(g, phi, selected, v)) < d):
            events.append(("A_pair", (u, v)))
    for v in sorted(high):
        count = sum(1 for u in g.neighbors(v) if degsel(u) < m)
        if Fraction(count) > eps * g.max_degree:
            events.append(("B_vertex", (v,)))
    return events


def reference_patch_events(g: Graph, phi: TotalColoring, bulk_edges, patch_edges,
                           light, alpha: Fraction, B: int) -> list[tuple]:
    """Patch-stage bad events, recounting every set and degree per query."""
    deleted = set(bulk_edges) | set(patch_edges)
    events = []
    for v in range(g.n):
        held = sum(1 for e in g.incident_edges(v) if e in patch_edges)
        if v not in light and Fraction(g.degree(v)) > alpha * g.max_degree \
                and held >= B:
            events.append(("A2_overload", (v,)))
    for u, v in g.edges:
        if u in light and v in light and \
                _restricted_set(g, phi, deleted, u) == _restricted_set(g, phi, deleted, v):
            events.append(("B2_pair", (u, v)))
    return events
