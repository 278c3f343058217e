"""Starting colourings: a greedy proper total colouring.

The greedy seeder never needs more than 2*max_degree + 1 colours, because
each element (vertex or edge) conflicts with at most 2*max_degree already
coloured neighbours in the total sense.
"""

from __future__ import annotations

from .coloring import TotalColoring, _with_stars
from .graphs import Edge, Graph


def greedy_total(g: Graph) -> TotalColoring:
    """Proper total colouring by smallest-available colour: vertices in
    ascending order, then edges in lexicographic endpoint order.

    Uses at most 2*max_degree + 1 colours. Not adjacent-vertex-
    distinguishing in general; it seeds the recolouring pipeline.

    Colours live in a flat vertex list (0 = not yet coloured) and, per
    vertex, a bitmask of the colours on its coloured edges. Bit 0 is set in
    every mask, so an uncoloured vertex forbids nothing new and the lowest
    clear bit of a forbidden mask is the first-fit colour, at least 1.
    The result carries those masks as its ``stars``: with bit 0 cleared (no
    colour is 0) and the vertex colour's bit set, each is v's closed star.
    """
    adjacency = g.adjacency
    vcol = [0] * g.n
    emask = [1] * g.n
    ecol: dict[Edge, int] = {}
    for v in range(g.n):
        bad = 1  # no edge is coloured yet
        for w in adjacency[v]:
            bad |= 1 << vcol[w]
        vcol[v] = (~bad & (bad + 1)).bit_length() - 1
    for u, v in g.edges:
        bad = emask[u] | emask[v] | 1 << vcol[u] | 1 << vcol[v]
        c = (~bad & (bad + 1)).bit_length() - 1
        emask[u] |= 1 << c
        emask[v] |= 1 << c
        ecol[(u, v)] = c

    used = max(max(vcol, default=1), max(ecol.values(), default=1))
    if used > 2 * g.max_degree + 1:
        raise RuntimeError(
            f"greedy seeding used {used} colours, above 2*max_degree + 1")
    return _with_stars([m ^ 1 | 1 << c for m, c in zip(emask, vcol)],
                       tuple(vcol), ecol, used)
