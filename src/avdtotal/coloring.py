"""Total colourings, colour sets, verifiers, and the JSON document format.

A total colouring assigns a colour to every vertex and every edge. It is
proper when adjacent vertices differ, adjacent edges differ, and every
vertex differs from its incident edges. The colour set of a vertex v is
its own colour together with the colours of its incident edges; a proper
total colouring is adjacent-vertex-distinguishing (AVD) when every pair of
adjacent vertices has distinct colour sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph, normalize_edge


@dataclass(frozen=True)
class TotalColoring:
    """Colours for every vertex and edge, drawn from the palette 1..k.

    Instances are snapshots: phases that recolour build a new object.
    """

    vertex_colors: tuple[int, ...]
    edge_colors: dict[Edge, int]
    k: int

    def used_colors(self) -> frozenset[int]:
        return frozenset(self.vertex_colors) | frozenset(self.edge_colors.values())

    def edge_color(self, u: int, v: int) -> int:
        return self.edge_colors[normalize_edge(u, v)]


@dataclass(frozen=True)
class ColorSet:
    """The colours visible at ``owner``: its own plus its incident edges'."""

    owner: int
    colors: frozenset[int]


@dataclass(frozen=True)
class Violation:
    """One offence against properness or distinguishability.

    kind is one of ``vertex-vertex``, ``vertex-edge``, ``edge-edge``,
    ``undistinguished-pair``; the witness holds the offending pair, with
    edges given as sorted endpoint tuples.
    """

    kind: str
    witness: tuple


class DocumentError(ValueError):
    """Colouring document malformed or inconsistent with its graph."""


def check_total(g: Graph, phi: TotalColoring) -> None:
    """Raise ValueError unless phi is a total assignment on g within 1..k."""
    if len(phi.vertex_colors) != g.n:
        raise ValueError(
            f"vertex colour count {len(phi.vertex_colors)} does not match n={g.n}")
    if set(phi.edge_colors) != g.edge_set:
        raise ValueError("edge colours do not cover the edge set exactly")
    for c in phi.vertex_colors:
        if not 1 <= c <= phi.k:
            raise ValueError(f"vertex colour {c} outside palette 1..{phi.k}")
    for c in phi.edge_colors.values():
        if not 1 <= c <= phi.k:
            raise ValueError(f"edge colour {c} outside palette 1..{phi.k}")


def color_set(g: Graph, phi: TotalColoring, v: int) -> ColorSet:
    """Colour set of one vertex; isolated vertices see only their own colour."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    cols = {phi.vertex_colors[v]}
    for w in g.adjacency[v]:
        cols.add(phi.edge_colors[normalize_edge(v, w)])
    return ColorSet(owner=v, colors=frozenset(cols))


def color_sets(g: Graph, phi: TotalColoring) -> list[frozenset[int]]:
    """All colour sets at once; index by vertex."""
    out = []
    for v in range(g.n):
        cols = {phi.vertex_colors[v]}
        for w in g.adjacency[v]:
            cols.add(phi.edge_colors[normalize_edge(v, w)])
        out.append(frozenset(cols))
    return out


def properness_violations(g: Graph, phi: TotalColoring) -> list[Violation]:
    """Every properness offence, one Violation per offending pair."""
    check_total(g, phi)
    out: list[Violation] = []
    for u, v in g.edges:
        cu, cv = phi.vertex_colors[u], phi.vertex_colors[v]
        ce = phi.edge_colors[(u, v)]
        if cu == cv:
            out.append(Violation("vertex-vertex", (u, v)))
        if cu == ce:
            out.append(Violation("vertex-edge", (u, (u, v))))
        if cv == ce:
            out.append(Violation("vertex-edge", (v, (u, v))))
    for v in range(g.n):
        by_color: dict[int, list[Edge]] = {}
        for w in g.adjacency[v]:
            e = normalize_edge(v, w)
            by_color.setdefault(phi.edge_colors[e], []).append(e)
        for group in by_color.values():
            # adjacent edges share exactly one endpoint, so each clashing
            # pair is reported at a single vertex
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    out.append(Violation("edge-edge", (group[i], group[j])))
    return out


def is_proper(g: Graph, phi: TotalColoring) -> bool:
    return not properness_violations(g, phi)


def avd_violations(g: Graph, phi: TotalColoring) -> list[Violation]:
    """Adjacent pairs with identical colour sets; input must be proper."""
    if properness_violations(g, phi):
        raise ValueError("distinguishability is only defined for proper colourings")
    sets = color_sets(g, phi)
    return [Violation("undistinguished-pair", (u, v))
            for u, v in g.edges if sets[u] == sets[v]]


def palette_size(phi: TotalColoring) -> int:
    """Number of distinct colours actually used (not the declared budget)."""
    return len(phi.used_colors())


# ---------------------------------------------------------------------------
# JSON document format

def verdict(g: Graph, phi: TotalColoring) -> dict[str, bool]:
    """Recomputed {proper, avd} flags; avd is False whenever properness fails."""
    proper = is_proper(g, phi)
    avd = proper and not avd_violations(g, phi)
    return {"proper": proper, "avd": avd}


def to_document(g: Graph, phi: TotalColoring) -> dict:
    """Serialize graph plus colouring with freshly verified flags."""
    check_total(g, phi)
    return {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges],
        "k": phi.k,
        "vertex_colors": list(phi.vertex_colors),
        "edge_colors": [{"u": u, "v": v, "c": phi.edge_colors[(u, v)]}
                        for u, v in g.edges],
        "verified": verdict(g, phi),
    }


def _is_int(value) -> bool:
    """JSON integers only: booleans and floats, even integral ones, are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def from_document(doc: dict) -> tuple[Graph, TotalColoring]:
    """Rebuild (graph, colouring) from a document.

    Shape faults raise DocumentError, and so does any count, endpoint or
    colour that is not a JSON integer (booleans and floats included).
    Stored ``verified`` flags are ignored, callers recompute them. Improper
    colourings load fine.
    """
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    for key in ("n", "edges", "k", "vertex_colors", "edge_colors"):
        if key not in doc:
            raise DocumentError(f"document missing field {key!r}")
    n = doc["n"]
    if not _is_int(n):
        raise DocumentError("n must be an integer")
    for key in ("edges", "vertex_colors", "edge_colors"):
        if not isinstance(doc[key], (list, tuple)):
            raise DocumentError(f"{key} must be a list")
    edges = []
    for e in doc["edges"]:
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e))):
            raise DocumentError(f"bad edge record: {e!r}")
        edges.append(tuple(e))
    try:
        g = Graph.build(n, edges)
    except ValueError as exc:
        raise DocumentError(f"bad graph data: {exc}") from None
    k = doc["k"]
    if not _is_int(k) or k < 0:
        raise DocumentError("k must be a non-negative integer")
    vcs = doc["vertex_colors"]
    if len(vcs) != g.n or not all(map(_is_int, vcs)):
        raise DocumentError("vertex_colors must list one integer per vertex")
    ecs: dict[Edge, int] = {}
    for item in doc["edge_colors"]:
        if not (isinstance(item, dict)
                and all(_is_int(item.get(key)) for key in ("u", "v", "c"))):
            raise DocumentError(f"bad edge colour record: {item!r}")
        e = normalize_edge(item["u"], item["v"])
        c = item["c"]
        if e not in g.edge_set:
            raise DocumentError(f"edge colour for non-edge {e}")
        if e in ecs:
            raise DocumentError(f"duplicate edge colour for {e}")
        ecs[e] = c
    missing = g.edge_set - set(ecs)
    if missing:
        raise DocumentError(f"missing edge colour for {sorted(missing)[0]}")
    phi = TotalColoring(vertex_colors=tuple(vcs), edge_colors=ecs, k=k)
    try:
        check_total(g, phi)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    return g, phi
