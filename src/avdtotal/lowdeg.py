"""Deterministic vertex recolouring that distinguishes every low-degree vertex.

A vertex u with 2*deg(u) <= max_degree has at most 2*deg(u) forbidden
colours, which is strictly below any proper total palette size k >= Δ+1,
so a safe replacement colour always exists. Recolouring u with any colour
outside its forbidden set makes u's colour set differ from all neighbours'
permanently: later steps only apply the same argument at other vertices.
"""

from __future__ import annotations

from .coloring import TotalColoring, color_sets
from .graphs import Graph, degree_split


def _forbidden(g: Graph, vertex_colors: list[int], sets: list[frozenset[int]],
               u: int) -> set[int]:
    """Colours u must avoid: neighbour vertex colours, incident edge colours,
    and any colour whose adoption would replicate a neighbour's colour set.

    sets holds every vertex's current colour set; in a proper colouring u's
    own colour is on none of its edges, so removing it leaves the edge
    colours at u.
    """
    edge_cols = sets[u] - {vertex_colors[u]}
    out = set(edge_cols)
    for w in g.adjacency[u]:
        out.add(vertex_colors[w])
        # u taking colour i yields colour set {i} | edge_cols; avoid any i
        # with sets[w] == {i} | edge_cols
        if edge_cols <= sets[w]:
            extra = sets[w] - edge_cols
            if len(extra) == 1:
                out.update(extra)
    if len(out) > 2 * g.degree(u):
        raise RuntimeError(
            f"vertex {u} has {len(out)} forbidden colours, above 2*deg = {2 * g.degree(u)}")
    return out


def distinguish_low_degree(g: Graph, phi: TotalColoring) -> TotalColoring:
    """Recolour low-degree vertices until each differs from all neighbours.

    phi must be a proper total colouring of g. Edge colours and high-degree
    vertex colours are never touched; the palette budget k stays fixed. One
    ascending pass over the low vertices gives each undistinguished one the
    smallest allowed colour. No recolouring can undo an earlier one, because
    the forbidden set excludes every colour that would copy a neighbour's
    colour set; so each low vertex is recoloured at most once.
    """
    if phi.k <= g.max_degree:
        raise ValueError(f"palette k={phi.k} must exceed max_degree={g.max_degree}")
    vcols = list(phi.vertex_colors)
    sets = color_sets(g, phi)
    changed = False
    for u in sorted(degree_split(g).low):
        if all(sets[u] != sets[w] for w in g.adjacency[u]):
            continue
        bad = _forbidden(g, vcols, sets, u)
        c = 1
        while c in bad:
            c += 1
        if c > phi.k:
            raise RuntimeError(f"no colour within k={phi.k} is free at vertex {u}")
        sets[u] = (sets[u] - {vcols[u]}) | {c}
        vcols[u] = c
        changed = True

    if not changed:
        return phi
    return TotalColoring(vertex_colors=tuple(vcols),
                         edge_colors=phi.edge_colors, k=phi.k)
