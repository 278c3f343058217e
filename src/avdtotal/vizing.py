"""Constructive proper edge colouring with at most max_degree + 1 colours.

Edges are coloured one at a time, in sorted order. Each edge uv first takes
the smallest colour free at both u and v, when that colour is at most
max_degree + 1. Only when there is none does it go through the
fan-rotation step of Misra & Gries (A constructive proof of Vizing's
theorem, IPL 41, 1992): build the maximal fan around u, invert a
two-coloured alternating path and rotate the fan to free a colour. That
step works from any proper partial colouring, so the first-fit choices
keep the bound. Fully deterministic: every choice takes the smallest
colour. On the unions ``run_pipeline`` recolours, almost every edge is
coloured by first-fit; a star K_{1,N} gives leaf i colour i.

The loop is the private ``_color_edges``, which takes a sorted edge list
and its maximum degree instead of a Graph, and returns a list of colours
whose item i is the colour of the i-th edge passed in. ``vizing_color(g)``
passes g's edges; ``pipeline.recolor_union`` passes the edges of
``g.edges`` at the rows its two selections hold, in row order, and writes
the colours back by row, so no Graph of the union is built or validated.

First-fit is the private ``_first_fit``, which colours the edges an
iterator yields until one has no colour within a limit, and returns that
edge. ``_color_edges`` keeps one iterator over its list and
alternates first-fit runs, at limit max_degree + 1, with one fan step for
each edge a run stops at; ``seeding.greedy_total``'s edge pass is one run
at limit 2*max_degree + 1 from its closed-star masks.

Colour sets are per-vertex bitmasks. Only fans and path walks need the
edge of a given colour at a vertex, so the fan index, one dict per vertex
from colour to that edge's position in the list, is built from the
colours so far when the first edge needs a fan, and kept current from
then on; the far endpoint is read from the edge at that position. A
colouring that reaches no fan has no slots until the first fan: a star
K_{1,N}, or the union ``run_pipeline`` recolours on ``random_gnp(5000,
0.004, 0)``, keeps only the bitmasks and the colours. Once built, slots
are overwritten in place and never deleted; a slot whose colour bit is
clear is stale and never read. A vertex holds one slot per colour its
edges have had since the index was built, so slot memory is bounded by
the colour assignments made, not by n times the palette size.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .graphs import Edge, Graph


@dataclass(frozen=True)
class EdgeColoring:
    """Proper assignment of colours 1..k to edges; ``colors`` iterates in
    ``g.edges`` order."""

    colors: dict[Edge, int]
    k: int


def vizing_color(g: Graph) -> EdgeColoring:
    """Proper edge colouring of g using at most max_degree + 1 colours."""
    return EdgeColoring(dict(zip(g.edges, _color_edges(g.n, g.edges, g.max_degree))),
                        g.max_degree + 1)


def _color_edges(n: int, edges: Sequence[Edge], max_degree: int) -> list[int]:
    """Colours 1..max_degree + 1 for edges; item i colours ``edges[i]``.

    edges must be sorted, distinct pairs u < v of vertices below n, and
    max_degree their maximum degree; nothing here checks that. Passing
    ``g.edges`` and ``g.max_degree`` colours g as ``vizing_color`` does.
    """
    k = max_degree + 1
    color: list[int] = []
    # used[x] has bit col set for each colour on an edge at x, and bit 0
    # always, so the lowest zero bit is the smallest free colour
    used = [1] * n
    # one iterator over the edges: each first-fit run goes on where the
    # last stopped, at the edge after the one that needed a fan
    rest = iter(edges)
    stop = _first_fit(rest, used, k, color)
    if stop is None:
        return color
    # the fan index, kept current from here on. at[x][col] is read only
    # while bit col of used[x] is set, so stale slots stay
    at = _fan_index(n, edges, color)

    # each edge that needs a fan appends its colour, which later fans and
    # paths rewrite by position; then first-fit runs to the next such edge
    while stop is not None:
        u, v = stop
        i = len(color)
        at_u = at[u]
        # maximal fan around u starting at v: each next edge's colour is
        # free at the previous fan vertex and not yet in the fan; smallest
        # such colour each step. fan_cols[j] is the colour of edge
        # edges[fan_pos[j]], which joins u to fan[j]. Edge i holds colour 0
        # until the rotation gives it one
        color.append(0)
        fan = [v]
        fan_pos = [i]
        fan_cols = [0]
        last = v
        avail = used[u]  # colours at u not yet in the fan (and bit 0)
        while True:
            m = avail & ~used[last]
            if not m:
                break
            bit = m & -m
            col = bit.bit_length() - 1
            j = at_u[col]
            x, y = edges[j]
            last = x ^ y ^ u
            fan.append(last)
            fan_pos.append(j)
            fan_cols.append(col)
            avail ^= bit

        m = used[last]
        d = (~m & (m + 1)).bit_length() - 1
        if not used[u] >> d & 1:
            w_idx = len(fan) - 1
        else:
            m = used[u]
            c = (~m & (m + 1)).bit_length() - 1
            # invert the maximal path through u on colours {c, d}. u misses
            # c, so the walk is a path (never a cycle) and starts on a d
            # edge. The whole path is walked before any slot is rewritten,
            # since the rewrites overwrite slots the walk still reads
            swap = c ^ d
            path = []
            cur, want = u, d
            while used[cur] >> want & 1:
                j = at[cur][want]
                x, y = edges[j]
                cur ^= x ^ y
                path.append(j)
                want ^= swap
            new = c
            for j in path:
                x, y = edges[j]
                at[x][new] = at[y][new] = j
                color[j] = new
                new ^= swap
            # inner path vertices keep both colours; each end swaps one
            # for the other
            both = 1 << c | 1 << d
            used[u] ^= both
            used[cur] ^= both
            # the inversion turned u's d edge into a c edge; no other edge
            # at u changed. At w_idx = 0 the rotation reads no fan colour
            if not avail >> d & 1:
                fan_cols[fan_cols.index(d)] = c
            # the first fan vertex missing d, through a prefix whose edge
            # colours are each still free at the vertex before
            w_idx = -1
            for j, w in enumerate(fan):
                if j and used[fan[j - 1]] >> fan_cols[j] & 1:
                    break
                if not used[w] >> d & 1:
                    w_idx = j
                    break
            if w_idx < 0:
                # the inversion freed d at u, so some fan prefix always works
                raise RuntimeError(f"no fan prefix of edge ({u}, {v}) can take colour {d}")

        used[u] |= 1 << d
        # rotate: u-fan[j] takes the colour of u-fan[j + 1] for j < w_idx
        # and u-fan[w_idx] takes d, so at w_idx = 0 uv itself takes d
        new_cols = fan_cols[1:w_idx + 1]
        new_cols.append(d)
        for j, x in enumerate(fan[:w_idx + 1]):
            col = new_cols[j]
            color[fan_pos[j]] = col
            at_u[col] = at[x][col] = fan_pos[j]
            if j:
                used[x] ^= 1 << fan_cols[j] | 1 << col
            else:
                used[x] |= 1 << col

        # the next run; later fans and paths read its colours by position
        start = len(color)
        stop = _first_fit(rest, used, k, color)
        for j in range(start, len(color)):
            x, y = edges[j]
            at[x][color[j]] = at[y][color[j]] = j

    return color


def _first_fit(edges: Iterator[Edge], masks: list[int], limit: int,
               color: list[int]) -> Edge | None:
    """Appends to color the first-fit colour of each edge uv that edges
    yields: the lowest colour whose bit is clear in ``masks[u] | masks[v]``,
    whose bit it then sets in both. Bit 0 must be set in every mask, so
    each colour is at least 1.

    Stops at the first edge with no colour within 1..limit and returns it,
    with masks as they were at that edge; returns None once edges is spent.
    """
    for u, v in edges:
        m = masks[u] | masks[v]
        bit = ~m & (m + 1)
        col = bit.bit_length() - 1
        if col > limit:
            return u, v
        color.append(col)
        masks[u] |= bit
        masks[v] |= bit
    return None


def _fan_index(n: int, edges: Sequence[Edge], color: list[int]) -> list[dict[int, int]]:
    """For each vertex x below n, a dict from the colour of each edge at x
    to that edge's position in edges, over the positions color covers;
    for fans and path walks."""
    at: list[dict[int, int]] = [{} for _ in range(n)]
    for j, ((x, y), col) in enumerate(zip(edges, color)):
        at[x][col] = at[y][col] = j
    return at
