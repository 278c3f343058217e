"""Deterministic vertex recolouring that distinguishes every low-degree vertex.

A vertex u with 2*deg(u) <= max_degree has at most 2*deg(u) forbidden
colours, which is strictly below any proper total palette size k >= Δ+1,
so a safe replacement colour always exists. Recolouring u with any colour
outside its forbidden set makes u's colour set differ from all neighbours'
permanently: later steps only apply the same argument at other vertices.
"""

from __future__ import annotations

from .coloring import TotalColoring, properness_violations
from .graphs import Graph, degree_split, normalize_edge


def _forbidden(g: Graph, vertex_colors: list[int], phi: TotalColoring,
               u: int, neighbour_sets: list[frozenset[int]] | None = None) -> set[int]:
    """Colours u must avoid: neighbour vertex colours, incident edge colours,
    and any colour whose adoption would replicate a neighbour's colour set."""
    edge_cols = {phi.edge_colors[normalize_edge(u, w)] for w in g.adjacency[u]}
    out = set(edge_cols)
    for w in g.adjacency[u]:
        out.add(vertex_colors[w])
        if neighbour_sets is not None:
            cw = neighbour_sets[w]
        else:
            cw = frozenset({vertex_colors[w]} | {
                phi.edge_colors[normalize_edge(w, x)] for x in g.adjacency[w]})
        # u taking colour i yields colour set {i} | edge_cols; avoid any i
        # with cw == {i} | edge_cols
        if edge_cols <= cw:
            extra = cw - edge_cols
            if len(extra) == 1:
                out.update(extra)
    if len(out) > 2 * g.degree(u):
        raise RuntimeError(
            f"vertex {u} has {len(out)} forbidden colours, above 2*deg = {2 * g.degree(u)}")
    return out


def forbidden_colors(g: Graph, phi: TotalColoring, u: int) -> set[int]:
    """Forbidden replacement vertex colours for the low-degree vertex u."""
    split = degree_split(g)
    if u not in split.low:
        raise ValueError(f"vertex {u} is not low-degree (2*deg > max_degree)")
    if phi.k <= g.max_degree:
        raise ValueError(f"palette k={phi.k} must exceed max_degree={g.max_degree}")
    if properness_violations(g, phi):
        raise ValueError("colouring must be proper")
    return _forbidden(g, list(phi.vertex_colors), phi, u)


def distinguish_low_degree(g: Graph, phi: TotalColoring) -> TotalColoring:
    """Recolour low-degree vertices until each differs from all neighbours.

    Edge colours and high-degree vertex colours are never touched; the
    palette budget k stays fixed. Scans low vertices in ascending order and
    gives the first undistinguished one the smallest allowed colour;
    terminates within one recolouring per low vertex.
    """
    if phi.k <= g.max_degree:
        raise ValueError(f"palette k={phi.k} must exceed max_degree={g.max_degree}")
    if properness_violations(g, phi):
        raise ValueError("colouring must be proper")
    split = degree_split(g)
    low = sorted(split.low)
    vcols = list(phi.vertex_colors)
    sets: list[frozenset[int]] = []
    for v in range(g.n):
        sets.append(frozenset({vcols[v]} | {
            phi.edge_colors[normalize_edge(v, w)] for w in g.adjacency[v]}))

    steps = 0
    changed = False
    while True:
        target = -1
        for u in low:
            if any(sets[u] == sets[w] for w in g.adjacency[u]):
                target = u
                break
        if target < 0:
            break
        bad = _forbidden(g, vcols, phi, target, sets)
        c = 1
        while c in bad:
            c += 1
        if c > phi.k:
            raise RuntimeError(f"no colour within k={phi.k} is free at vertex {target}")
        vcols[target] = c
        sets[target] = frozenset({c} | {
            phi.edge_colors[normalize_edge(target, w)] for w in g.adjacency[target]})
        steps += 1
        changed = True
        if steps > len(low):
            raise RuntimeError("low-degree recolouring exceeded one step per low vertex")

    if not changed:
        return phi
    return TotalColoring(vertex_colors=tuple(vcols),
                         edge_colors=phi.edge_colors, k=phi.k)
