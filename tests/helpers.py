"""Shared test oracles.

Everything here re-derives its answer from first principles with code
paths disjoint from the library: set comprehensions instead of
incremental bookkeeping, exact Fraction sums instead of log-space
floats, and permutation canonical forms instead of graph6 strings.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from avdtotal import (BadEvent, Edge, EdgeColoring, EdgeSelection, Graph,
                      PipelineParams, SelectionResult, TotalColoring, Violation,
                      check_total, find_total_coloring, normalize_edge, random_gnp,
                      substream)
from avdtotal.graphs import _edge_rows


def from_edge_dict(g: Graph, vertex_colors, colour_of: dict, k) -> TotalColoring:
    """The colouring of g with colour ``colour_of[e]`` on each edge e: the
    dict form of a colouring, keyed by the edges of g as ``g.edges`` names
    them, in any key order, turned into the row-aligned one. Each colour is
    placed at the row ``graphs._edge_rows`` finds for its key; ValueError
    unless the keys are exactly the edges of g."""
    keys = list(colour_of)
    rows = _edge_rows(g, keys).tolist()
    if len(keys) != len(g.edges) or -1 in rows:
        raise ValueError("edge colours do not cover the edge set exactly")
    colours = [0] * len(g.edges)
    for r, c in zip(rows, colour_of.values()):
        colours[r] = c
    return TotalColoring(tuple(vertex_colors), tuple(colours), k, g)


def edge_dict(phi: TotalColoring) -> dict[Edge, int]:
    """phi's edge colours as a dict from the edges of its graph, for the
    oracles that read colours by edge tuple."""
    return dict(zip(phi.graph.edges, phi.edge_colors))


def naive_is_proper(g: Graph, phi: TotalColoring) -> bool:
    colour_of = edge_dict(phi)
    for u, v in g.edges:
        if phi.vertex_colors[u] == phi.vertex_colors[v]:
            return False
        c = colour_of[(u, v)]
        if c == phi.vertex_colors[u] or c == phi.vertex_colors[v]:
            return False
    for v in range(g.n):
        cols = [colour_of[normalize_edge(v, w)] for w in g.adjacency[v]]
        if len(cols) != len(set(cols)):
            return False
    return True


def naive_color_set(g: Graph, phi: TotalColoring, v: int) -> frozenset[int]:
    colour_of = edge_dict(phi)
    return frozenset({phi.vertex_colors[v]}
                     | {colour_of[normalize_edge(v, w)] for w in g.adjacency[v]})


def mask_of(colours) -> int:
    """The bitmask with bit c set for each colour c."""
    return sum(1 << c for c in set(colours))


def used_colours(phi: TotalColoring) -> frozenset[int]:
    """The colours phi puts on some vertex or edge."""
    return frozenset(phi.vertex_colors) | frozenset(phi.edge_colors)


def colours_of(mask: int) -> set[int]:
    """The colours whose bits are set in mask."""
    return {c for c in range(mask.bit_length()) if mask >> c & 1}


def with_private_vertex_colours(g: Graph, ec: EdgeColoring) -> TotalColoring:
    """ec with a fresh colour of its own on every vertex, so the only
    ``violations`` the total colouring can have are ec's edge clashes."""
    return from_edge_dict(g, range(ec.k + 1, ec.k + 1 + g.n), ec.colors, ec.k + g.n)


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


def reference_build(n: int, edges) -> tuple:
    """``Graph.build``'s fields from a set: (edges, adjacency, max_degree),
    each adjacency list collected by scanning every edge and sorted
    explicitly."""
    pairs = frozenset((min(u, v), max(u, v)) for u, v in edges)
    adjacency = tuple(tuple(sorted([b for a, b in pairs if a == x]
                                   + [a for a, b in pairs if b == x]))
                      for x in range(n))
    return (tuple(sorted(pairs)), adjacency,
            max((len(a) for a in adjacency), default=0))


def reference_graph6_body(n: int, edges) -> str:
    """The graph6 bit vector after the size header, by walking every pair
    i < j in column order (j = 1 .. n - 1, then i), six bits a character."""
    edge_set = set(edges)
    bits = "".join("1" if (i, j) in edge_set else "0"
                   for j in range(1, n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return "".join(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))


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


@functools.cache
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n labelled vertices, one per isomorphism class.

    Edge subsets are scanned in bitmask order and each class is represented
    by its first member. When one is found, all n! relabellings of it are
    marked seen, so the rest of its class is skipped unexamined. Graphs are
    immutable, so each n is enumerated once per test session and shared.
    """
    pairs = list(itertools.combinations(range(n), 2))
    bit = {pair: 1 << i for i, pair in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        if bits in seen:
            continue
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph.build(n, edges)
        if not _connected(g):
            continue
        out.append(g)
        for perm in perms:
            seen.add(sum(bit[normalize_edge(perm[u], perm[v])] for u, v in edges))
    return tuple(out)


def _connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == g.n


def hub_graph(seed, n, background_degree, hubs):
    """Sparse random background plus hubs joined to a third of the vertices,
    so almost every vertex is low and low neighbours often clash."""
    edges = set(random_gnp(n, background_degree / (n - 1), seed).edges)
    rng = random.Random(seed)
    for h in range(hubs):
        for v in rng.sample([v for v in range(n) if v != h], n // 3):
            edges.add((min(h, v), max(h, v)))
    return Graph.build(n, edges)


def elements_clash(g: Graph, a, b) -> bool:
    """Whether two total-colouring elements must receive distinct colours."""
    if isinstance(a, int) and isinstance(b, int):
        return b in g.adjacency[a]
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
            yield TotalColoring(tuple(assignment[:g.n]), tuple(assignment[g.n:]), k, g)
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
    edge_colors = tuple(colored[e] for e in g.edges)
    k = max(colored.values(), default=1)
    return TotalColoring(vertex_colors, edge_colors, k, g)


def _restricted_set(g: Graph, phi: TotalColoring, colour_of: dict[Edge, int], deleted,
                    v: int) -> frozenset[int]:
    return frozenset({phi.vertex_colors[v]}
                     | {colour_of[e] for w in g.adjacency[v]
                        if (e := normalize_edge(v, w)) not in deleted})


def reference_bulk_first_round(g: Graph, p: float, M: int, seed: int) -> frozenset[Edge]:
    """The bulk stage's first selection: every edge with an endpoint of
    degree above max_degree/2 kept when its draw from the bulk stream is
    below p, then every kept edge at a vertex holding more than M dropped."""
    high = {v for v in range(g.n) if 2 * g.degree(v) > g.max_degree}
    cands = [(u, v) for u, v in sorted(g.edges) if u in high or v in high]
    draws = substream(seed, "bulk-deletion").random(len(cands))
    drawn = [e for e, x in zip(cands, draws) if x < p]
    held: dict[int, int] = {}
    for u, v in drawn:
        held[u] = held.get(u, 0) + 1
        held[v] = held.get(v, 0) + 1
    return frozenset(e for e in drawn if held[e[0]] <= M and held[e[1]] <= M)


def reference_patch_first_draw(g: Graph, bulk, light, B: int,
                               seed: int) -> frozenset[Edge] | None:
    """The patch stage's first selection, or None when some light vertex
    has fewer than B available edges.

    Each light vertex, in ascending order, draws B distinct positions from
    the patch stream into its pool: its edges to non-light neighbours
    outside ``bulk``, by ascending neighbour.
    """
    pools = {u: [tuple(sorted((u, w))) for w in sorted(g.adjacency[u])
                 if w not in light and tuple(sorted((u, w))) not in bulk]
             for u in sorted(light)}
    if any(len(pool) < B for pool in pools.values()):
        return None
    rng = substream(seed, "patch-deletion")
    picked: set[Edge] = set()
    for u in sorted(light):
        picked.update(pools[u][i] for i in rng.choice(len(pools[u]), B, replace=False))
    return frozenset(picked)


def reference_bulk_events(g: Graph, phi: TotalColoring, selected, m: int,
                          d: int, eps: Fraction) -> list[tuple]:
    """Bulk-stage bad events, recounting every set and degree per query."""
    high = {v for v in range(g.n) if 2 * g.degree(v) > g.max_degree}
    colour_of = edge_dict(phi)

    def degsel(v):
        return sum(1 for w in g.adjacency[v] if normalize_edge(v, w) in selected)

    events = []
    for u, v in g.edges:
        if (u in high and v in high and g.degree(u) == g.degree(v)
                and (degsel(u) >= m or degsel(v) >= m)
                and len(_restricted_set(g, phi, colour_of, selected, u)
                        ^ _restricted_set(g, phi, colour_of, selected, v)) < d):
            events.append(("A_pair", (u, v)))
    for v in sorted(high):
        count = sum(1 for u in g.adjacency[v] if degsel(u) < m)
        if Fraction(count) > eps * g.max_degree:
            events.append(("B_vertex", (v,)))
    return events


def reference_forced(g: Graph, m: int, eps: Fraction) -> tuple[int, ...]:
    """High vertices more than eps*max_degree of whose neighbours lie on
    fewer than m candidate edges, so hold fewer than m in any selection."""
    high = {v for v in range(g.n) if 2 * g.degree(v) > g.max_degree}
    held = {v: sum(1 for w in g.adjacency[v] if v in high or w in high)
            for v in range(g.n)}
    return tuple(v for v in sorted(high)
                 if Fraction(sum(1 for w in g.adjacency[v] if held[w] < m))
                 > eps * g.max_degree)


def reference_find_bulk_deletion(g: Graph, phi: TotalColoring, params: PipelineParams,
                                 stop_at_floor: bool = True) -> SelectionResult:
    """find_bulk_deletion's draw, cap and resampling loop, each round's
    events recounted by ``reference_bulk_events`` on plain edge sets.

    With stop_at_floor the loop also ends once its best round has no
    event beyond the forced B_vertex ones; without it, only the round cap,
    the stall cap or a fixed draw ends it."""
    resolved = params.resolve(g)
    high = {v for v in range(g.n) if 2 * g.degree(v) > g.max_degree}
    cands = [(u, v) for u, v in g.edges if u in high or v in high]
    forced = reference_forced(g, params.m, params.eps)
    floor = len(forced) if stop_at_floor else 0
    ends = np.array(cands, dtype=np.int64).reshape(-1, 2)
    cu, cv = ends[:, 0], ends[:, 1]
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(cands):
        incident[u].append(i)
        incident[v].append(i)
    near: dict[int, np.ndarray] = {}

    def indicators_near(w: int) -> np.ndarray:
        if w not in near:
            seen = dict.fromkeys(i for x in (w, *g.adjacency[w]) for i in incident[x])
            near[w] = np.fromiter(seen, dtype=np.int64, count=len(seen))
        return near[w]

    def endpoint_counts(idx: np.ndarray) -> np.ndarray:
        return (np.bincount(cu[idx], minlength=g.n)
                + np.bincount(cv[idx], minlength=g.n))

    rng = substream(params.seed, "bulk-deletion")
    mask = rng.random(len(cands)) < resolved.p if cands else np.zeros(0, dtype=bool)

    best = None
    rounds = 0
    stall = 0
    while True:
        chosen = np.flatnonzero(mask)
        counts = endpoint_counts(chosen)
        kept = chosen[(counts[cu[chosen]] <= resolved.M)
                      & (counts[cv[chosen]] <= resolved.M)]
        selection = EdgeSelection.from_edges(g, map(cands.__getitem__, kept.tolist()))
        violations = [BadEvent(kind, w) for kind, w in reference_bulk_events(
            g, phi, selection.edges, params.m, params.d, params.eps)]
        rounds += 1
        if not violations:
            return SelectionResult(selection, True, rounds, (), forced=forced)
        if best is None or len(violations) < best[0]:
            best = (len(violations), selection, tuple(violations))
            stall = 0
        else:
            stall += 1
        if rounds >= params.max_rounds or stall >= params.stall_rounds:
            break
        if best[0] <= floor:
            break
        if resolved.p >= 1.0 or resolved.p <= 0.0:
            break
        taken = np.zeros(len(cands), dtype=bool)
        parts = []
        for event in violations:
            for w in event.witness:
                fresh = indicators_near(w)
                fresh = fresh[~taken[fresh]]
                taken[fresh] = True
                parts.append(fresh)
        idx = np.concatenate(parts)
        if idx.size:
            mask[idx] = rng.random(idx.size) < resolved.p
    _, selection, violations = best
    return SelectionResult(selection, False, rounds, violations, forced=forced)


def reference_patch_events(g: Graph, phi: TotalColoring, bulk_edges, patch_edges,
                           light, alpha: Fraction, B: int) -> list[tuple]:
    """Patch-stage bad events, recounting every set and degree per query."""
    deleted = set(bulk_edges) | set(patch_edges)
    colour_of = edge_dict(phi)
    events = []
    for v in range(g.n):
        held = sum(1 for w in g.adjacency[v] if normalize_edge(v, w) in patch_edges)
        if v not in light and Fraction(g.degree(v)) > alpha * g.max_degree \
                and held >= B:
            events.append(("A2_overload", (v,)))
    for u, v in g.edges:
        if u in light and v in light and \
                _restricted_set(g, phi, colour_of, deleted, u) == \
                _restricted_set(g, phi, colour_of, deleted, v):
            events.append(("B2_pair", (u, v)))
    return events


def reference_find_patch_deletion(g: Graph, phi: TotalColoring, bulk: EdgeSelection,
                                  light, params: PipelineParams) -> SelectionResult:
    """find_patch_deletion's draws and resampling loop on plain edge sets,
    each round's events recounted by ``reference_patch_events``.

    Each light vertex's pool is its edges to non-light neighbours outside
    the bulk selection, by ascending neighbour; a draw is B distinct pool
    positions from the patch stream, in ascending order. A violated round
    redraws, in witness order and once each, the light vertices among every
    witness and its neighbours.
    """
    order = sorted(light)
    pools = {u: [normalize_edge(u, w) for w in sorted(g.adjacency[u])
                 if w not in light and normalize_edge(u, w) not in bulk.edges]
             for u in order}
    for u in order:
        if len(pools[u]) < params.B:
            return SelectionResult(EdgeSelection.from_edges(g, []), False, 0, (),
                                   infeasible_vertex=u)
    rng = substream(params.seed, "patch-deletion")

    def draw(u):
        picks = rng.choice(len(pools[u]), size=params.B, replace=False)
        return [pools[u][i] for i in sorted(picks)]

    draws = {u: draw(u) for u in order}
    best = None
    rounds = 0
    stall = 0
    while True:
        selection = EdgeSelection.from_edges(g, [e for u in order for e in draws[u]])
        violations = tuple(BadEvent(kind, w) for kind, w in reference_patch_events(
            g, phi, bulk.edges, selection.edges, light, params.alpha, params.B))
        rounds += 1
        if not violations:
            return SelectionResult(selection, True, rounds, ())
        if best is None or len(violations) < len(best[1]):
            best = (selection, violations)
            stall = 0
        else:
            stall += 1
        if rounds >= params.max_rounds or stall >= params.stall_rounds:
            break
        if all(len(pools[u]) == params.B for u in order):
            break
        redraw = []
        for event in violations:
            for w in event.witness:
                for x in (w, *sorted(g.adjacency[w])):
                    if x in light and x not in redraw:
                        redraw.append(x)
        for u in redraw:
            draws[u] = draw(u)
    return SelectionResult(best[0], False, rounds, best[1])


def reference_distinguish_low_degree(g: Graph, phi: TotalColoring) -> TotalColoring:
    """The low-degree phase as a rescan: after every recolour, scan again
    from the first low vertex for one whose colour set equals a neighbour's.

    Each candidate colour is tried against the rules directly: it must
    differ from every neighbour's colour and every incident edge's, and must
    not make u's colour set equal to a neighbour's.
    """
    low = [v for v in range(g.n) if 2 * g.degree(v) <= g.max_degree]
    vertex_colors = list(phi.vertex_colors)
    colour_of = edge_dict(phi)

    def colour_set(v):
        return frozenset({vertex_colors[v]}
                         | {colour_of[normalize_edge(v, w)] for w in g.adjacency[v]})

    for _ in range(len(low) + 1):
        target = next((u for u in low
                       if any(colour_set(u) == colour_set(w) for w in g.adjacency[u])),
                      None)
        if target is None:
            break
        edge_cols = {colour_of[normalize_edge(target, w)] for w in g.adjacency[target]}
        c = 1
        while (c in edge_cols
               or any(vertex_colors[w] == c for w in g.adjacency[target])
               or any(frozenset(edge_cols | {c}) == colour_set(w)
                      for w in g.adjacency[target])):
            c += 1
        if c > phi.k:
            raise AssertionError(f"first fit at vertex {target} needs colour {c}, "
                                 f"above the palette 1..{phi.k}")
        vertex_colors[target] = c
    else:
        raise AssertionError("rescan recoloured more often than once per low vertex")
    return TotalColoring(tuple(vertex_colors), phi.edge_colors, phi.k, g)


def reference_repair_fallback(g: Graph, phi: TotalColoring) -> TotalColoring:
    """The repair phase as a round loop: every round recomputes all colour
    sets, takes the first undistinguished adjacent pair in edge order, and
    recolours one edge at its first endpoint (else one at its second, else
    the first endpoint itself) with the new colour k + 1."""
    vertex_colors, colour_of, k = list(phi.vertex_colors), edge_dict(phi), phi.k

    def colour_set(v):
        return frozenset({vertex_colors[v]}
                         | {colour_of[normalize_edge(v, w)] for w in g.adjacency[v]})

    for _ in range(g.n):
        clash = next(((u, v) for u, v in g.edges if colour_set(u) == colour_set(v)), None)
        if clash is None:
            break
        u, v = clash
        k += 1
        edge = None
        for w in g.adjacency[u]:
            if w != v:
                edge = normalize_edge(u, w)
                break
        if edge is None:
            for w in g.adjacency[v]:
                if w != u:
                    edge = normalize_edge(v, w)
                    break
        if edge is not None:
            colour_of[edge] = k
        else:
            vertex_colors[u] = k
    else:
        if any(colour_set(u) == colour_set(v) for u, v in g.edges):
            raise RuntimeError(f"violations persist after {g.n} repair rounds")
    return TotalColoring(tuple(vertex_colors), tuple(colour_of[e] for e in g.edges), k, g)


def reference_vizing_color(g: Graph) -> EdgeColoring:
    """Misra-Gries fan rotation with dict scans. Each edge first takes the
    smallest colour in 1..k on no edge at either end, found by counting up;
    only when there is none does it build the fan, where each step scans
    every coloured edge at u for the smallest colour free at the previous
    fan vertex, and every colour is looked up by its normalized edge.

    ``vizing_color`` makes the same choices on colour bitmasks, so its
    colours, and the order of its ``colors`` dict, must equal these.
    """
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
        # the smallest colour on no edge at u or v, if it is within k
        c = 1
        while c in at[u] or c in at[v]:
            c += 1
        if c <= k:
            color[(u, v)] = c
            at[u][c] = v
            at[v][c] = u
            continue
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


def reference_edge_clashes(g: Graph, edge_colors) -> list[tuple[Edge, Edge]]:
    """Same-coloured edge pairs, grouping every vertex's edges by colour.

    Walks each adjacency list and looks every colour up by its normalized
    edge; the library must report the same pairs in the same order.
    """
    out: list[tuple[Edge, Edge]] = []
    for v in range(g.n):
        by_color: dict[int, list[Edge]] = {}
        for w in g.adjacency[v]:
            e = normalize_edge(v, w)
            by_color.setdefault(edge_colors[e], []).append(e)
        for group in by_color.values():
            out.extend(itertools.combinations(group, 2))
    return out


def reference_properness_violations(g: Graph, phi: TotalColoring) -> list[Violation]:
    """Every properness offence as the per-edge loop listed them before the
    closed-star test: the loop verbatim, then ``reference_edge_clashes``.
    The library's verifier must return the same list in the same order."""
    out: list[Violation] = []
    colour_of = edge_dict(phi)
    for u, v in g.edges:
        cu, cv = phi.vertex_colors[u], phi.vertex_colors[v]
        ce = colour_of[(u, v)]
        if cu == cv:
            out.append(Violation("vertex-vertex", (u, v)))
        if cu == ce:
            out.append(Violation("vertex-edge", (u, (u, v))))
        if cv == ce:
            out.append(Violation("vertex-edge", (v, (u, v))))
    out.extend(Violation("edge-edge", pair)
               for pair in reference_edge_clashes(g, colour_of))
    return out


def reference_violations(g: Graph, phi: TotalColoring) -> list[Violation]:
    """The mask-based verifier ``violations`` ran before the sort-based one:
    every closed star as a bitmask; phi is proper when each star holds
    deg + 1 colours and no edge joins equal vertex colours, and AVD when
    moreover no edge joins equal stars. The masks take a bit per colour,
    so use it on colours far below 2**63.
    """
    check_total(g, phi)
    stars = [1 << c for c in phi.vertex_colors]
    for (u, v), c in edge_dict(phi).items():
        stars[u] |= 1 << c
        stars[v] |= 1 << c
    vc = phi.vertex_colors
    if (any(s.bit_count() != len(nbrs) + 1 for s, nbrs in zip(stars, g.adjacency))
            or any(vc[u] == vc[v] for u, v in g.edges)):
        return reference_properness_violations(g, phi)
    return [Violation("undistinguished-pair", (u, v))
            for u, v in g.edges if stars[u] == stars[v]]


def reference_document_body(g: Graph, phi: TotalColoring, verified: dict) -> dict:
    """The colouring document as ``coloring._document_body`` built it before
    its one-pass edge records: one lookup per edge of ``g.edges`` in phi's
    edge colours by edge tuple. The library must build an equal dict."""
    colour_of = edge_dict(phi)
    return {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges],
        "k": phi.k,
        "vertex_colors": list(phi.vertex_colors),
        "edge_colors": [{"u": u, "v": v, "c": colour_of[(u, v)]}
                        for u, v in g.edges],
        "verified": dict(verified),
    }


def reference_find_total_coloring(g: Graph, k: int,
                                  distinguishing: bool = False) -> TotalColoring | None:
    """The hook-driven total-colouring search the star-mask search replaced.

    Conflict lists, the search order, the backtracker with its
    on_assign/on_unassign hooks and the frozenset distinguishing prune are
    the previous library code, verbatim. The library must return the same
    colouring, or None, for every (g, k, distinguishing).
    """
    conflict, order = _reference_total_structure(g)
    t = g.n + len(g.edges)
    t_colors = [0] * t
    on_assign = on_unassign = None
    if distinguishing:
        n = g.n
        star: list[list[int]] = [[v] for v in range(n)]
        touches: list[list[int]] = [[v] for v in range(n)] + [[] for _ in g.edges]
        for j, (u, v) in enumerate(g.edges):
            star[u].append(n + j)
            star[v].append(n + j)
            touches[n + j] = [u, v]
        remaining = [len(star[v]) for v in range(n)]

        def star_set(v: int) -> frozenset[int]:
            return frozenset(t_colors[e] for e in star[v])

        def on_assign(e: int, c: int) -> bool:
            ok = True
            for v in touches[e]:
                remaining[v] -= 1
            for v in touches[e]:
                if remaining[v] != 0:
                    continue
                mine = None
                for w in g.adjacency[v]:
                    if remaining[w] == 0 and len(star[w]) == len(star[v]):
                        if mine is None:
                            mine = star_set(v)
                        if mine == star_set(w):
                            ok = False
                            break
                if not ok:
                    break
            return ok

        def on_unassign(e: int, c: int) -> None:
            for v in touches[e]:
                remaining[v] += 1

    result = _reference_backtrack(t, conflict, order, k, on_assign, on_unassign,
                                  t_colors)
    if result is None:
        return None
    return TotalColoring(tuple(result[: g.n]), tuple(result[g.n:]), k, g)


def reference_least_k(g: Graph, ks: range, distinguishing: bool) -> int:
    """The least-k scan the library ran before it decided each k by value:
    ``find_total_coloring`` at each k of ks in turn, its guards, exits and
    plan all run again at every k, and its first colouring built and
    dropped. ``chi_total_exact`` and ``chi_at_exact`` must return what it
    returns on their ranges."""
    for k in ks:
        if find_total_coloring(g, k, distinguishing) is not None:
            return k
    raise AssertionError(f"no colouring with at most {ks[-1]} colours")


def _reference_backtrack(t, conflict, order, k, on_assign=None, on_unassign=None,
                         color=None):
    if color is None:
        color = [0] * t

    def rec(i: int, max_used: int) -> bool:
        if i == t:
            return True
        e = order[i]
        banned = 0
        for f in conflict[e]:
            banned |= 1 << color[f]
        limit = min(k, max_used + 1)
        for c in range(1, limit + 1):
            if banned >> c & 1:
                continue
            color[e] = c
            ok = on_assign(e, c) if on_assign else True
            if ok and rec(i + 1, max_used if c <= max_used else c):
                return True
            if on_unassign:
                on_unassign(e, c)
            color[e] = 0
        return False

    return color if rec(0, 0) else None


def _reference_total_structure(g: Graph) -> tuple[list[list[int]], list[int]]:
    n, edges = g.n, g.edges
    idx = {e: n + j for j, e in enumerate(edges)}
    conflict: list[list[int]] = [[] for _ in range(n + len(edges))]
    for v in range(n):
        for w in g.adjacency[v]:
            conflict[v].append(w)
            conflict[v].append(idx[(v, w) if v < w else (w, v)])
    for j, (u, v) in enumerate(edges):
        e = n + j
        conflict[e].append(u)
        conflict[e].append(v)
        for x in (u, v):
            for w in g.adjacency[x]:
                other = idx[(x, w) if x < w else (w, x)]
                if other != e:
                    conflict[e].append(other)
    conflict = [sorted(set(c)) for c in conflict]
    rank = [0] * (n + len(edges))
    counter = 0
    for v in range(n):
        rank[v] = counter
        counter += 1
        for u in sorted(g.adjacency[v]):
            if u < v:
                rank[idx[(u, v)]] = counter
                counter += 1
    order = sorted(range(len(conflict)), key=lambda e: (-len(conflict[e]), rank[e]))
    return conflict, order


def reference_search_plan(g: Graph, distinguishing: bool) -> list[tuple]:
    """The total-colouring search's steps as the library built them before
    its one-pass plan: the search order sorted on 4-tuple keys, each closed
    star's list of positions, the look-ahead checks gathered per vertex
    with a scan of the positions between its last two star elements, and
    the pairs gathered per position. The library's plan must equal it step
    by step, for either mode."""
    n, edges, adj = g.n, g.edges, g.adjacency
    keys = [(-2 * len(adj[v]), v, -1, v) for v in range(n)]
    keys += [(-len(adj[u]) - len(adj[v]), v, u, n + j)
             for j, (u, v) in enumerate(edges)]
    order = [key[3] for key in sorted(keys)]
    t = len(order)
    ends = [(e,) if e < n else edges[e - n] for e in order]
    star_at: list[list[int]] = [[] for _ in range(n)]
    for i, touched in enumerate(ends):
        for v in touched:
            star_at[v].append(i)
    done_at = [at[-1] if at else 0 for at in star_at]
    checks: list = [()] * t
    if distinguishing:
        checks = [[] for _ in range(t)]
        for v in range(n):
            last = done_at[v]
            twins = [w for w in adj[v]
                     if len(adj[w]) == len(adj[v]) and done_at[w] < last]
            if not twins:
                continue
            first = star_at[v][-2]
            a, b = ends[last]
            y = a if b == v else b
            moved = [i for i in range(first + 1, last) if y in ends[i]]
            at = {first, *moved, *(done_at[w] for w in twins if done_at[w] > first)}
            for i in sorted(at):
                ready = [w for w in twins if done_at[w] <= i]
                if ready:
                    checks[i].append((v, y, ready))
    steps = []
    for i, e in enumerate(order):
        pairs = []
        if distinguishing:
            for v in ends[i]:
                if done_at[v] == i:
                    pairs += [(v, w) for w in adj[v]
                              if done_at[w] < i or (done_at[w] == i and v < w)]
        stars = (e, e) if e < n else ends[i]
        steps.append((e, stars, adj[e] if e < n else (), pairs, checks[i]))
    return steps
