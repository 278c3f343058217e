"""Deterministic vertex recolouring that distinguishes every low-degree vertex.

A vertex u with 2*deg(u) <= max_degree has at most 2*deg(u) forbidden
colours, which is strictly below any proper total palette size k >= Δ+1,
so a safe replacement colour always exists. Recolouring u with any colour
outside its forbidden set makes u's colour set differ from all neighbours'
permanently: later steps only apply the same argument at other vertices.
"""

from __future__ import annotations

from .coloring import TotalColoring, _equal_mask_rows, _move_forbidden, _with_stars
from .graphs import Graph, degree_split


def distinguish_low_degree(g: Graph, phi: TotalColoring) -> TotalColoring:
    """Recolour low-degree vertices until each differs from all neighbours.

    phi must be a proper total colouring of g; the low vertices are those
    of ``degree_split(g)``. Edge colours and high-degree vertex colours are
    never touched; the palette budget k stays fixed. One ascending pass
    over the low vertices gives each undistinguished one the smallest
    allowed colour. No recolouring can undo an earlier one, because the
    forbidden set, the vertex case of ``coloring._move_forbidden``,
    excludes every colour that would copy a neighbour's colour set; so
    each low vertex is recoloured at most once.

    A recolour changes only its own vertex's set, and never to a
    neighbour's, so a pair that differs keeps differing. The pass therefore
    visits only the low vertices with an equal neighbour on entry, the ends
    of the rows ``coloring._equal_mask_rows`` finds, and rechecks each;
    with no low vertex there is no scan. It updates a copy of
    ``phi.stars``, which the result carries.
    """
    # a proper total colouring has k >= max_degree + 1 once there is a
    # vertex; the empty graph's k = 0 colouring is proper
    if g.n and phi.k <= g.max_degree:
        raise ValueError(f"palette k={phi.k} must exceed max_degree={g.max_degree}")
    low = degree_split(g).low
    if not low:
        return phi
    masks = list(phi.stars)
    clashing = {x for row in _equal_mask_rows(g, masks) for x in g.edges[row]}
    vcols = list(phi.vertex_colors)
    changed = False
    for u in sorted(clashing.intersection(low)):
        if all(masks[u] != masks[w] for w in g.adjacency[u]):
            continue
        bad = _move_forbidden(g, masks, vcols, (u,), vcols[u])
        if bad.bit_count() > 2 * g.degree(u):
            raise RuntimeError(f"vertex {u} has {bad.bit_count()} forbidden colours, "
                               f"above 2*deg = {2 * g.degree(u)}")
        # colours start at 1, so bit 0 counts as taken; the lowest clear
        # bit is the smallest allowed colour, at most 2*deg(u) + 1 <= Δ + 1 <= k
        bad |= 1
        c = ((bad + 1) & ~bad).bit_length() - 1
        # u's set equals a neighbour's, so its own colour is forbidden and
        # c differs from it
        masks[u] ^= 1 << vcols[u] | 1 << c
        vcols[u] = c
        changed = True

    if not changed:
        return phi
    return _with_stars(masks, tuple(vcols), phi.edge_colors, phi.k, g)
