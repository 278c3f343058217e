"""Starting colourings: a greedy proper total colouring.

The greedy seeder never needs more than 2*max_degree + 1 colours, because
each element (vertex or edge) conflicts with at most 2*max_degree already
coloured neighbours in the total sense.
"""

from __future__ import annotations

from .coloring import TotalColoring, _with_stars
from .graphs import Graph


def greedy_total(g: Graph) -> TotalColoring:
    """Proper total colouring by smallest-available colour: vertices in
    ascending order, then edges in lexicographic endpoint order.

    Uses at most 2*max_degree + 1 colours. Not adjacent-vertex-
    distinguishing in general; it seeds the recolouring pipeline.

    The vertex pass reads, for each vertex, only its smaller neighbours: an
    adjacency list is sorted and larger neighbours are not yet coloured.
    The edge pass keeps one closed-star mask per vertex, bit c set when the
    vertex or a coloured edge at it has colour c. Bit 0 is set in every
    mask, so the lowest clear bit of ``star[u] | star[v]`` is the first-fit
    colour of uv, at least 1. The result carries those masks, bit 0
    cleared, as its ``stars``.
    """
    adjacency = g.adjacency
    # a vertex colour is at most max_degree + 1
    bits = [1 << c for c in range(g.max_degree + 2)]
    vcol = [0] * g.n
    for v in range(g.n):
        bad = 1
        for w in adjacency[v]:
            if w > v:
                break
            bad |= bits[vcol[w]]
        vcol[v] = (~bad & (bad + 1)).bit_length() - 1
    star = [1 | bits[c] for c in vcol]
    ecol: list[int] = []
    for u, v in g.edges:
        bad = star[u] | star[v]
        c = (~bad & (bad + 1)).bit_length() - 1
        bit = 1 << c
        star[u] |= bit
        star[v] |= bit
        ecol.append(c)

    used = max(max(vcol, default=1), max(ecol, default=1))
    if used > 2 * g.max_degree + 1:
        raise RuntimeError(
            f"greedy seeding used {used} colours, above 2*max_degree + 1")
    return _with_stars([s ^ 1 for s in star], tuple(vcol), tuple(ecol), used, g)
