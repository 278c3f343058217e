"""Constructive proper edge colouring with at most max_degree + 1 colours.

Fan-rotation algorithm: colour edges one at a time; when the preferred
colour is blocked, invert a two-coloured alternating path and rotate a fan
of edges around one endpoint to free it. Fully deterministic: edges are
processed in sorted order and every choice takes the smallest colour.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import edge_clashes
from .graphs import Edge, Graph, normalize_edge


@dataclass(frozen=True)
class EdgeColoring:
    """Proper assignment of colours 1..k to edges."""

    colors: dict[Edge, int]
    k: int

    def used_colors(self) -> frozenset[int]:
        return frozenset(self.colors.values())


def edge_properness_violations(g: Graph, ec: EdgeColoring) -> list[tuple[Edge, Edge]]:
    """Pairs of same-coloured edges sharing an endpoint."""
    if set(ec.colors) != g.edge_set:
        raise ValueError("edge colours do not cover the edge set exactly")
    return edge_clashes(g, ec.colors)


def vizing_color(g: Graph) -> EdgeColoring:
    """Proper edge colouring of g using at most max_degree + 1 colours."""
    k = g.max_degree + 1
    color: dict[Edge, int] = {}
    # at[x] maps each colour on an edge at x to the far endpoint
    at: list[dict[int, int]] = [{} for _ in range(g.n)]

    def free(x: int) -> int:
        c = 1
        while c in at[x]:
            c += 1
        return c

    def invert_path(u: int, c: int, d: int) -> None:
        # walk the maximal path through u on colours {c, d}; u misses c,
        # so the walk is a path (never a cycle) and starts on a d edge
        path: list[tuple[int, int, int]] = []
        cur, want = u, d
        while want in at[cur]:
            nxt = at[cur][want]
            path.append((cur, nxt, want))
            cur, want = nxt, (c if want == d else d)
        for x, y, col in path:
            del at[x][col]
            del at[y][col]
        for x, y, col in path:
            new = c if col == d else d
            at[x][new] = y
            at[y][new] = x
            color[normalize_edge(x, y)] = new

    for u, v in g.edges:
        # maximal fan around u starting at v: each next edge's colour is
        # free at the previous fan vertex; smallest such colour each step
        fan = [v]
        fan_set = {v}
        while True:
            last = fan[-1]
            best: tuple[int, int] | None = None
            for col, w in at[u].items():
                if w not in fan_set and col not in at[last]:
                    if best is None or col < best[0]:
                        best = (col, w)
            if best is None:
                break
            fan.append(best[1])
            fan_set.add(best[1])

        c = free(u)
        d = free(fan[-1])
        if d not in at[u]:
            w_idx = len(fan) - 1
        else:
            invert_path(u, c, d)
            w_idx = -1
            for j in range(len(fan)):
                if j > 0 and color[normalize_edge(u, fan[j])] in at[fan[j - 1]]:
                    break
                if d not in at[fan[j]]:
                    w_idx = j
                    break
            if w_idx < 0:
                # the inversion freed d at u, so some fan prefix always works
                raise RuntimeError(f"no fan prefix of edge ({u}, {v}) can take colour {d}")

        shifted = [color[normalize_edge(u, fan[i + 1])] for i in range(w_idx)]
        for i in range(1, w_idx + 1):
            col = color.pop(normalize_edge(u, fan[i]))
            del at[u][col]
            del at[fan[i]][col]
        for i in range(w_idx):
            e = normalize_edge(u, fan[i])
            color[e] = shifted[i]
            at[u][shifted[i]] = fan[i]
            at[fan[i]][shifted[i]] = u
        e = normalize_edge(u, fan[w_idx])
        color[e] = d
        at[u][d] = fan[w_idx]
        at[fan[w_idx]][d] = u

    return EdgeColoring(colors=color, k=k)
