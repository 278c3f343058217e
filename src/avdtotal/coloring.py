"""Total colourings, colour sets, the one verifier, and the JSON document format.

A total colouring assigns a colour to every vertex and every edge. It is
proper when adjacent vertices differ, adjacent edges differ, and every
vertex differs from its incident edges. The colour set of a vertex v is
its own colour together with the colours of its incident edges, held as a
closed-star bitmask in ``TotalColoring.stars``; a proper total colouring is
adjacent-vertex-distinguishing (AVD) when adjacent vertices' sets differ.

The verifier, ``violations``, reads colours only, never masks. It sorts
the keys vertex*stride + colour over every closed star, with the graph's
cached endpoint array ``Graph._ends``: a repeated key, or an edge joining
equal vertex colours, is a properness offence. On a proper colouring it
sums a 64-bit hash of each colour over each closed star, and confirms
every edge whose two sums match against the exact colour sets, so the
verdict never rests on the hash."""

from __future__ import annotations

import functools
import gc
import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import Edge, Graph, normalize_edge


@dataclass(frozen=True)
class TotalColoring:
    """Colours for every vertex and edge, drawn from the palette 1..k.

    Instances are snapshots: phases that recolour build a new object, and
    edge_colors must not change after ``stars`` has been read.
    """

    vertex_colors: tuple[int, ...]
    edge_colors: dict[Edge, int]
    k: int

    @functools.cached_property
    def stars(self) -> tuple[int, ...]:
        """Every colour set as a closed-star bitmask, indexed by vertex: bit
        c of the mask of v is set when v or an edge at v has colour c.
        Set by the phase that made this colouring, else built by
        ``_closed_stars`` on first read."""
        return _closed_stars(self)

    def used_colors(self) -> frozenset[int]:
        return frozenset(self.vertex_colors) | frozenset(self.edge_colors.values())


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
    if phi.edge_colors.keys() != g.edge_set:
        raise ValueError("edge colours do not cover the edge set exactly")
    for what, colors in (("vertex", phi.vertex_colors),
                         ("edge", phi.edge_colors.values())):
        # one min/max sweep; the loop naming the first bad colour runs
        # only when it fails
        if colors and not 1 <= min(colors) <= max(colors) <= phi.k:
            bad = next(c for c in colors if not 1 <= c <= phi.k)
            raise ValueError(f"{what} colour {bad} outside palette 1..{phi.k}")


def _closed_stars(phi: TotalColoring) -> tuple[int, ...]:
    """The one builder of closed-star masks from an edge-colour dict, for
    ``TotalColoring.stars``: one pass ORs each edge's colour bit into both
    ends, then each vertex's own colour bit is added."""
    masks = [0] * len(phi.vertex_colors)
    for (u, v), c in phi.edge_colors.items():
        bit = 1 << c
        masks[u] |= bit
        masks[v] |= bit
    return tuple(m | 1 << c for m, c in zip(masks, phi.vertex_colors))


def _with_stars(stars: list[int] | tuple[int, ...], vertex_colors: tuple[int, ...],
                edge_colors: dict[Edge, int], k: int) -> TotalColoring:
    """A new colouring whose ``stars`` are set to stars, which must be its
    masks; for phases that keep the masks current as they recolour."""
    phi = TotalColoring(vertex_colors, edge_colors, k)
    object.__setattr__(phi, "stars", tuple(stars))
    return phi


def _edge_clashes(g: Graph, edge_colors: dict[Edge, int]) -> list[tuple[Edge, Edge]]:
    """Pairs of same-coloured edges sharing an endpoint, grouped by vertex."""
    out: list[tuple[Edge, Edge]] = []
    for v, nbrs in enumerate(g.adjacency):
        by_color: dict[int, list[Edge]] = {}
        for w in nbrs:
            e = normalize_edge(v, w)
            by_color.setdefault(edge_colors[e], []).append(e)
        for group in by_color.values():
            # adjacent edges share exactly one endpoint, so each clashing
            # pair is reported at a single vertex
            out.extend(itertools.combinations(group, 2))
    return out


def _witnesses(g: Graph, phi: TotalColoring) -> list[Violation]:
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
    out.extend(Violation("edge-edge", pair)
               for pair in _edge_clashes(g, phi.edge_colors))
    return out


def violations(g: Graph, phi: TotalColoring) -> list[Violation]:
    """The one verifier: every properness offence, or on a proper colouring
    every undistinguished pair; empty exactly when phi is proper and AVD.

    After ``check_total``, ``_judge`` decides both properties from phi's
    colours alone, never from ``phi.stars``.
    """
    check_total(g, phi)
    return _judge(g, phi)


def _require_proper(g: Graph, phi: TotalColoring) -> TotalColoring:
    """The one entry check for a colouring from outside, before a phase
    trusts it; returns a fresh copy of phi whose masks are built when a
    phase first reads them, never taken from ``phi.stars``.

    ValueError unless k <= 2(n + |E|) + 1, which every run seeded by
    ``greedy_total`` ends within and which bounds the width of every mask;
    unless phi is a total assignment within 1..k (``check_total``); and
    unless ``_judge`` finds it proper.
    """
    bound = 2 * (g.n + len(g.edges)) + 1
    if phi.k > bound:
        raise ValueError(f"palette k={phi.k} is above 2(n + |E|) + 1 = {bound}")
    check_total(g, phi)
    found = _judge(g, phi)
    if not _proper(found):
        raise ValueError(f"colouring is not proper: {found[0].kind} at {found[0].witness}")
    return TotalColoring(phi.vertex_colors, phi.edge_colors, phi.k)


# the key bound of ``_judge``: every key vertex*stride + colour is below it
_KEY_LIMIT = 1 << 63

# splitmix64's finaliser constants (Steele, Lea and Flood, "Fast splittable
# pseudorandom number generators", OOPSLA 2014)
_MIX = tuple(np.uint64(x) for x in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                    0x94D049BB133111EB, 30, 27, 31))


def _colour_hash(colours: np.ndarray) -> np.ndarray:
    """splitmix64 of each colour, as uint64; arithmetic wraps modulo 2**64."""
    golden, mul1, mul2, s1, s2, s3 = _MIX
    z = colours.astype(np.uint64) + golden
    z = (z ^ z >> s1) * mul1
    z = (z ^ z >> s2) * mul2
    return z ^ z >> s3


def _edge_colours(g: Graph, phi: TotalColoring) -> Iterable[int]:
    """phi's edge colours as an iterable in ``g.edges`` order. Every phase
    builds its edge-colour dict in that order; the values are then read
    without a lookup per edge."""
    ecol = phi.edge_colors
    return ecol.values() if tuple(ecol) == g.edges else map(ecol.__getitem__, g.edges)


def _colour_arrays(g: Graph, phi: TotalColoring) -> tuple[np.ndarray, np.ndarray, int]:
    """phi's vertex colours, its edge colours in ``g.edges`` order, both as
    int64 arrays, and a stride above every colour in them, for g with at
    least one edge.

    The stride is the largest colour present plus one, never taken from k.
    When a colour does not fit in int64, or n*stride would not, the colours
    are relabelled by rank first, 1 for the smallest; the judge compares
    colours for equality only, which relabelling keeps.
    """
    vcol, ecol = phi.vertex_colors, phi.edge_colors
    try:
        vc = np.array(vcol, dtype=np.int64)
        ec = np.fromiter(_edge_colours(g, phi), dtype=np.int64, count=len(g.edges))
        stride = int(max(vc.max(), ec.max())) + 1
        if g.n * stride <= _KEY_LIMIT:
            return vc, ec, stride
    except OverflowError:
        pass
    rank = {c: r for r, c in enumerate(sorted({*vcol, *ecol.values()}), start=1)}
    return (np.array([rank[c] for c in vcol], dtype=np.int64),
            np.array([rank[ecol[e]] for e in g.edges], dtype=np.int64),
            len(rank) + 1)


def _judge(g: Graph, phi: TotalColoring) -> list[Violation]:
    """``violations`` of phi, a total assignment on g within its palette.

    Each vertex v contributes the key v*stride + c for its own colour and
    for each edge colour at v; sorted, the keys list each closed star's
    colours in ascending order, star after star. phi is proper exactly
    when no key repeats and no edge joins equal vertex colours; witnesses
    are listed only when it fails. On a proper phi, each star's colour
    hashes are summed: equal sets give equal sums, so only an edge whose
    endpoint sums match can be undistinguished, and each such edge is
    confirmed on the sorted colours themselves.
    """
    if not g.edges:
        return []
    vc, ec, stride = _colour_arrays(g, phi)
    ends = g._ends
    u, v = ends[:, 0], ends[:, 1]
    # vertex v's keys start at base[v]
    base = np.arange(g.n, dtype=np.int64) * stride
    keys = np.concatenate(((ends * stride + ec[:, None]).ravel(), base + vc))
    keys.sort()
    if (vc[u] == vc[v]).any() or (keys[1:] == keys[:-1]).any():
        return _witnesses(g, phi)
    colours = keys % stride
    # every star holds its vertex's own colour, so none is empty
    starts = np.searchsorted(keys, base)
    sums = np.add.reduceat(_colour_hash(colours), starts)
    same = np.flatnonzero(sums[u] == sums[v])
    if not same.size:
        return []
    colours, bounds = colours.tolist(), [*starts.tolist(), len(keys)]
    return [Violation("undistinguished-pair", g.edges[i])
            for i, (a, b) in zip(same.tolist(), ends[same].tolist())
            if colours[bounds[a]:bounds[a + 1]] == colours[bounds[b]:bounds[b + 1]]]


def _proper(found: list[Violation]) -> bool:
    """Whether a ``violations`` list belongs to a proper colouring."""
    return not found or found[0].kind == "undistinguished-pair"


# ---------------------------------------------------------------------------
# JSON document format

def verdict(g: Graph, phi: TotalColoring) -> dict[str, bool]:
    """Recomputed {proper, avd} flags; avd is False whenever properness fails."""
    found = violations(g, phi)
    return {"proper": _proper(found), "avd": not found}


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off, then restore its
    state; as a decorator, ``@_collector_paused()``, around each call. A
    solve or a command builds large containers but no reference cycles, so
    reference counting frees them, and collector passes would only walk
    them; ``TestCollectorPause`` in ``tests/test_cli.py`` and
    ``tests/test_pipeline.py`` pins both facts."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def to_document(g: Graph, phi: TotalColoring) -> dict:
    """Serialize graph plus colouring with freshly verified flags, with the
    cyclic garbage collector paused."""
    return _document_body(g, phi, verdict(g, phi))


def _document_body(g: Graph, phi: TotalColoring, verified: dict[str, bool]) -> dict:
    """The document of a total assignment phi, with flags already computed."""
    return {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges],
        "k": phi.k,
        "vertex_colors": list(phi.vertex_colors),
        "edge_colors": [{"u": u, "v": v, "c": phi.edge_colors[(u, v)]}
                        for u, v in g.edges],
        "verified": dict(verified),
    }


def _emit(obj) -> str:
    """obj as one line of strict JSON with sorted keys."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _document_json(g: Graph, phi: TotalColoring, verified: dict[str, bool],
                   report: dict | None = None) -> str:
    """``_emit`` of the ``_document_body`` document, with report added as
    its ``report`` field unless None, written as text in one pass.

    The two edge arrays are each written by one %-format over a flat list
    of their numbers, the top-level keys in sorted order; only the small
    ``report`` and ``verified`` dicts go through ``_emit``, so a
    non-finite float in them raises ValueError as it would there.
    """
    m = len(g.edges)
    ends = list(itertools.chain.from_iterable(g.edges))
    # c, u, v for each edge in turn
    triples = [0] * (3 * m)
    triples[0::3] = _edge_colours(g, phi)
    triples[1::3] = ends[0::2]
    triples[2::3] = ends[1::2]
    parts = [
        '"edge_colors": [' + ", ".join(['{"c": %s, "u": %s, "v": %s}'] * m) % tuple(triples)
        + "]",
        '"edges": [' + ", ".join(["[%s, %s]"] * m) % tuple(ends) + "]",
        f'"k": {phi.k}',
        f'"n": {g.n}',
    ]
    if report is not None:
        parts.append(f'"report": {_emit(report)}')
    parts.append(f'"verified": {_emit(verified)}')
    parts.append('"vertex_colors": [' + ", ".join(map(str, phi.vertex_colors)) + "]")
    return "{" + ", ".join(parts) + "}"


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
    vcs = doc["vertex_colors"]
    # before the graph is built: a short document may claim any n
    if n >= 0 and len(vcs) != n:
        raise DocumentError("vertex_colors must list one integer per vertex")
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
    if not all(map(_is_int, vcs)):
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
