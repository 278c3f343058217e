"""Starting colourings: a greedy proper total colouring.

The greedy seeder never needs more than 2*max_degree + 1 colours, because
each element (vertex or edge) conflicts with at most 2*max_degree already
coloured neighbours in the total sense.
"""

from __future__ import annotations

from .coloring import TotalColoring
from .graphs import Edge, Graph, normalize_edge

Element = int | Edge


def default_order(g: Graph) -> list[Element]:
    """Vertices ascending, then edges in lexicographic endpoint order."""
    return list(range(g.n)) + list(g.edges)


def _validate_order(g: Graph, order: list[Element]) -> None:
    seen_v: set[int] = set()
    seen_e: set[Edge] = set()
    for item in order:
        if isinstance(item, int) and not isinstance(item, bool):
            if not 0 <= item < g.n:
                raise ValueError(f"order contains unknown vertex {item}")
            if item in seen_v:
                raise ValueError(f"order repeats vertex {item}")
            seen_v.add(item)
        elif isinstance(item, tuple) and len(item) == 2:
            e = normalize_edge(*item)
            if e not in g.edge_set:
                raise ValueError(f"order contains non-edge {item}")
            if e in seen_e:
                raise ValueError(f"order repeats edge {item}")
            seen_e.add(e)
        else:
            raise ValueError(f"order contains unrecognized element {item!r}")
    if len(seen_v) != g.n or len(seen_e) != len(g.edges):
        raise ValueError("order must cover every vertex and edge exactly once")


def greedy_total(g: Graph, order: list[Element] | None = None) -> TotalColoring:
    """Proper total colouring by smallest-available colour along ``order``.

    Uses at most 2*max_degree + 1 colours. Not adjacent-vertex-
    distinguishing in general; it seeds the recolouring pipeline.

    Colours live in a flat vertex list (0 = not yet coloured) and, per
    vertex, a bitmask of the colours on its coloured edges. Bit 0 is set in
    every mask, so an uncoloured vertex forbids nothing new and the lowest
    clear bit of a forbidden mask is the first-fit colour, at least 1.
    """
    if order is None:
        order = default_order(g)
    else:
        _validate_order(g, order)
    adjacency = g.adjacency
    vcol = [0] * g.n
    emask = [1] * g.n
    ecol: dict[Edge, int] = {}
    for item in order:
        if isinstance(item, int):
            bad = emask[item]
            for w in adjacency[item]:
                bad |= 1 << vcol[w]
            vcol[item] = (~bad & (bad + 1)).bit_length() - 1
        else:
            u, v = item
            bad = emask[u] | emask[v] | 1 << vcol[u] | 1 << vcol[v]
            c = (~bad & (bad + 1)).bit_length() - 1
            emask[u] |= 1 << c
            emask[v] |= 1 << c
            ecol[normalize_edge(u, v)] = c

    used = max(max(vcol, default=1), max(ecol.values(), default=1))
    if used > 2 * g.max_degree + 1:
        raise RuntimeError(
            f"greedy seeding used {used} colours, above 2*max_degree + 1")
    return TotalColoring(vertex_colors=tuple(vcol), edge_colors=ecol, k=used)
