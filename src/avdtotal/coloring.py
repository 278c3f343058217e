"""Total colourings, colour sets, the one verifier, and the JSON document format.

A total colouring assigns a colour to every vertex and every edge. It is
proper when adjacent vertices differ, adjacent edges differ, and every
vertex differs from its incident edges. The colour set of a vertex v is
its own colour together with the colours of its incident edges, held as a
closed-star bitmask in ``TotalColoring.stars``; a proper total colouring is
adjacent-vertex-distinguishing (AVD) when adjacent vertices' sets differ.

A ``TotalColoring`` names the graph it was made on, and holds its edge
colours as one tuple in that graph's ``g.edges`` row order, so every
phase writes by row and every reader takes the rows as they are. Only the
witness listing of an improper colouring reads colours by edge tuple,
from a dict it builds for that.

The verifier, ``violations``, reads colours only, never masks.
``_colour_arrays`` reads them once, as int64 arrays, and checks the
``check_total`` palette range on those. The judge sorts the keys
vertex*stride + colour over every closed star, with the graph's cached
endpoint array ``Graph._ends``: a repeated key, or an edge joining equal
vertex colours, is a properness offence. On a proper colouring it sums a
64-bit hash of each colour over each closed star, and confirms every edge
whose two sums match against the exact colour sets, so the verdict never
rests on the hash. ``_equal_mask_rows``, the phases' scan for edges whose
endpoints have equal masks, confirms its hash matches in the same way.

``_move_forbidden`` is the one local-move check: read from the masks, the
colours that a single vertex or a single edge may not take when it alone
is recoloured, because the colouring would turn improper or a changed
vertex would copy a neighbour's colour set. The vertex case picks the
low-degree phase's colours; the edge case refuses every colour to an edge
whose two ends have equal sets, which no recolour of that edge can mend.

The document writer ``_document_json`` joins its JSON text once, from
token tables over the vertices and colours present."""

from __future__ import annotations

import array
import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import Edge, Graph, _collector_paused, _edge_rows, normalize_edge


@dataclass(frozen=True)
class TotalColoring:
    """Colours for every vertex and edge, drawn from the palette 1..k.

    ``edge_colors[r]`` is the colour of ``graph.edges[r]``; ``graph`` is
    the graph the colouring was made on, left out of equality and repr.
    The constructor checks nothing: ``check_total`` refuses a colouring
    made on a graph unequal to the one it is checked against, or without
    one colour per vertex and per edge.

    Instances are snapshots: phases that recolour build a new object, and
    once ``run_pipeline`` has returned one, its exit pass is what
    ``to_document`` takes as its verdict.
    """

    vertex_colors: tuple[int, ...]
    edge_colors: tuple[int, ...]
    k: int
    graph: Graph = field(compare=False, repr=False)

    @functools.cached_property
    def stars(self) -> tuple[int, ...]:
        """Every colour set as a closed-star bitmask, indexed by vertex: bit
        c of the mask of v is set when v or an edge at v has colour c.
        Set by the phase that made this colouring, else built by
        ``_closed_stars`` on first read."""
        return _closed_stars(self)


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
    """Raise ValueError unless phi is a total assignment on g within 1..k:
    one colour per vertex, a colouring made on a graph equal to g, which
    costs nothing when it is g itself, one colour per row of ``g.edges``,
    and the palette range, read on the colour arrays of ``_colour_arrays``."""
    _colour_arrays(g, phi)


def _closed_stars(phi: TotalColoring) -> tuple[int, ...]:
    """The one builder of closed-star masks from colours, for
    ``TotalColoring.stars``: one pass over the rows ORs each edge's colour
    bit into both ends, then each vertex's own colour bit is added."""
    masks = [0] * len(phi.vertex_colors)
    for (u, v), c in zip(phi.graph.edges, phi.edge_colors):
        bit = 1 << c
        masks[u] |= bit
        masks[v] |= bit
    return tuple(m | 1 << c for m, c in zip(masks, phi.vertex_colors))


def _with_stars(stars: list[int] | tuple[int, ...], vertex_colors: tuple[int, ...],
                edge_colors: tuple[int, ...], k: int, g: Graph) -> TotalColoring:
    """A new colouring of g whose ``stars`` are set to stars, which must be
    its masks; for phases that keep the masks current as they recolour."""
    phi = TotalColoring(vertex_colors, edge_colors, k, g)
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
    for (u, v), ce in zip(g.edges, phi.edge_colors):
        cu, cv = phi.vertex_colors[u], phi.vertex_colors[v]
        if cu == cv:
            out.append(Violation("vertex-vertex", (u, v)))
        if cu == ce:
            out.append(Violation("vertex-edge", (u, (u, v))))
        if cv == ce:
            out.append(Violation("vertex-edge", (v, (u, v))))
    out.extend(Violation("edge-edge", pair)
               for pair in _edge_clashes(g, dict(zip(g.edges, phi.edge_colors))))
    return out


def violations(g: Graph, phi: TotalColoring) -> list[Violation]:
    """The one verifier: every properness offence, or on a proper colouring
    every undistinguished pair; empty exactly when phi is proper and AVD.

    After the ``check_total`` checks, ``_judge`` decides both properties
    from the colour arrays they were read on, never from ``phi.stars``.
    """
    return _judge(g, phi, *_colour_arrays(g, phi))


def _require_proper(g: Graph, phi: TotalColoring) -> TotalColoring:
    """The one entry check for a colouring from outside, before a phase
    trusts it; returns a fresh copy of phi on g whose masks are built when
    a phase first reads them, never taken from ``phi.stars``.

    ValueError unless k <= 2(n + |E|) + 1, which every run seeded by
    ``greedy_total`` ends within and which bounds the width of every mask;
    unless phi is a total assignment within 1..k (``check_total``); and
    unless ``_judge`` finds it proper, on the colour arrays that check read.
    """
    bound = 2 * (g.n + len(g.edges)) + 1
    if phi.k > bound:
        raise ValueError(f"palette k={phi.k} is above 2(n + |E|) + 1 = {bound}")
    found = _judge(g, phi, *_colour_arrays(g, phi))
    if not _proper(found):
        raise ValueError(f"colouring is not proper: {found[0].kind} at {found[0].witness}")
    return TotalColoring(phi.vertex_colors, phi.edge_colors, phi.k, g)


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


def _int64(values: Sequence) -> np.ndarray | None:
    """values as an int64 array when each is an integer within int64 (a
    bool reads as the int it equals); else None."""
    try:
        return np.frombuffer(array.array("q", values), dtype=np.int64)
    except (TypeError, OverflowError):
        return None


def _in_palette(colours: np.ndarray, k) -> bool:
    return not colours.size or (colours.min() >= 1 and int(colours.max()) <= k)


def _colour_arrays(g: Graph, phi: TotalColoring) -> tuple[np.ndarray, np.ndarray, int]:
    """``check_total`` of phi, then phi's vertex colours and its edge
    colours, both as int64 arrays, and a stride above every colour in them;
    the one reader of phi's colours for the verifier.

    phi's graph must equal g, which costs nothing when it is g itself, and
    its edge colours, one per row of ``g.edges``, are read as they are.
    The palette range is checked with one min and max per array. Only when
    that check fails, or a colour is not an int within int64, do the
    colours go through Python: the first colour outside 1..k, vertices
    first, then edges in row order, is then named.

    The stride is the largest colour present plus one, never taken from k.
    When a colour is not an int64, or n*stride would not fit in one, the
    colours are relabelled by rank first, 1 for the smallest; the judge
    compares colours for equality only, which relabelling keeps.
    """
    vcol, ecol = phi.vertex_colors, phi.edge_colors
    if len(vcol) != g.n:
        raise ValueError(f"vertex colour count {len(vcol)} does not match n={g.n}")
    if phi.graph is not g and phi.graph != g:
        raise ValueError("the colouring was not made on this graph")
    if len(ecol) != len(g.edges):
        raise ValueError("edge colours do not cover the edge set exactly")
    vc, ec = _int64(vcol), _int64(ecol)
    exact = vc is not None and ec is not None
    if not (exact and _in_palette(vc, phi.k) and _in_palette(ec, phi.k)):
        for what, colors in (("vertex", vcol), ("edge", ecol)):
            if colors and not 1 <= min(colors) <= max(colors) <= phi.k:
                bad = next(c for c in colors if not 1 <= c <= phi.k)
                raise ValueError(f"{what} colour {bad} outside palette 1..{phi.k}")
    if exact:
        stride = int(max(vc.max(initial=0), ec.max(initial=0))) + 1
        if g.n * stride <= _KEY_LIMIT:
            return vc, ec, stride
    rank = {c: r for r, c in enumerate(sorted({*vcol, *ecol}), start=1)}
    return (np.array([rank[c] for c in vcol], dtype=np.int64),
            np.array([rank[c] for c in ecol], dtype=np.int64),
            len(rank) + 1)


def _judge(g: Graph, phi: TotalColoring, vc: np.ndarray, ec: np.ndarray,
           stride: int) -> list[Violation]:
    """``violations`` of phi, a total assignment on g within its palette,
    whose colours ``_colour_arrays`` read as vc, ec and stride.

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


def _equal_mask_rows(g: Graph, masks: Sequence[int]) -> list[int]:
    """The ascending rows of ``g.edges`` whose two endpoints have equal
    masks, for masks indexed by vertex. Each mask is hashed once and the
    hashes are compared at the rows of ``g._ends``; each row whose hashes
    match is confirmed on the masks themselves, so unequal masks with
    equal hashes are never reported."""
    if not g.edges:
        return []
    hashes = np.fromiter(map(hash, masks), dtype=np.int64, count=g.n)
    ends = g._ends
    rows = np.flatnonzero(hashes[ends[:, 0]] == hashes[ends[:, 1]])
    return [r for r, (u, v) in zip(rows.tolist(), ends[rows].tolist())
            if masks[u] == masks[v]]


def _move_forbidden(g: Graph, masks: Sequence[int], vertex_colors: Sequence[int],
                    ends: tuple[int, ...], old: int) -> int:
    """The mask of the colours c such that recolouring one element of a
    proper colouring of g, and nothing else, to c leaves the colouring
    improper or gives an end of the element a neighbour's colour set; masks
    holds every vertex's closed-star mask.

    The element is the vertex u when ends is (u,), the edge uw when ends
    is (u, w); old is its colour now, so c = old keeps the colouring as it
    is. Each end x then holds base | 1 << c, base being ``S[x]`` without
    old. A vertex may not take an edge colour at u or a neighbour's vertex
    colour, an edge no colour of ``S[u] | S[w]`` but old, and neither a c
    that makes an end's mask a neighbour's. The ends of an edge get equal
    masks exactly when they have them now, and then every colour is
    forbidden: -1, with every bit set.
    """
    if len(ends) == 2 and masks[ends[0]] == masks[ends[1]]:
        return -1
    out = 0
    for x in ends:
        base = masks[x] ^ 1 << old
        out |= base
        # forbid each c for which base | 1 << c is a neighbour's mask; a
        # mask one bit off base is that or base less a bit already in out,
        # and an edge's other end is one only when the ends' masks are equal
        for y in g.adjacency[x]:
            extra = masks[y] ^ base
            if extra.bit_count() == 1:
                out |= extra
    if len(ends) == 1:
        for y in g.adjacency[ends[0]]:
            out |= 1 << vertex_colors[y]
    return out


def _proper(found: list[Violation]) -> bool:
    """Whether a ``violations`` list belongs to a proper colouring."""
    return not found or found[0].kind == "undistinguished-pair"


# ---------------------------------------------------------------------------
# JSON document format

def verdict(g: Graph, phi: TotalColoring) -> dict[str, bool]:
    """Recomputed {proper, avd} flags; avd is False whenever properness fails."""
    found = violations(g, phi)
    return {"proper": _proper(found), "avd": not found}


def _mark_accepted(g: Graph, phi: TotalColoring) -> None:
    """Record on phi that ``violations(g, phi)`` has just found nothing; for
    ``run_pipeline``'s exit pass, on a colouring the run built. The mark
    names this very g, and ``to_document`` reads it."""
    object.__setattr__(phi, "_accepted_on", g)


_ACCEPTED = {"proper": True, "avd": True}


@_collector_paused()
def to_document(g: Graph, phi: TotalColoring) -> dict:
    """Serialize graph plus colouring with its {proper, avd} flags, with the
    cyclic garbage collector paused.

    A colouring that ``run_pipeline`` returned after its exit pass accepted
    it on this very g object is proper and AVD, and is not verified again.
    Any other phi, a loaded, hand-built or ``dataclasses.replace`` copy, the
    caller's own colouring returned unchanged, or the same colours with an
    equal but distinct Graph, gets a fresh ``verdict``.
    """
    accepted = getattr(phi, "_accepted_on", None) is g
    return _document_body(g, phi, _ACCEPTED if accepted else verdict(g, phi))


def _document_body(g: Graph, phi: TotalColoring, verified: dict[str, bool]) -> dict:
    """The document of a total assignment phi of g, with flags already
    computed; the edge records in one pass over ``g.edges`` and phi's edge
    colours, row by row."""
    return {
        "n": g.n,
        "edges": list(map(list, g.edges)),
        "k": phi.k,
        "vertex_colors": list(phi.vertex_colors),
        "edge_colors": [{"u": u, "v": v, "c": c}
                        for (u, v), c in zip(g.edges, phi.edge_colors)],
        "verified": dict(verified),
    }


def _emit(obj) -> str:
    """obj as one line of strict JSON with sorted keys."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _document_json(g: Graph, phi: TotalColoring, verified: dict[str, bool],
                   report: dict | None = None) -> str:
    """``_emit`` of the ``_document_body`` document, with report added as
    its ``report`` field unless None, written as text by one join.

    The three arrays are written from token tables: each vertex that ends
    an edge, and each colour present, is turned into text once (once per
    occurrence when ``_lookup`` finds the values sparse), in the
    strings ``'{"c": c, "u": '``, ``'u, "v": '``, ``'v}, '``, ``'[u, '``,
    ``'v], '`` and ``'c, '``; the tables are indexed by the rows of
    ``g._ends``, by the edge colours in ``g.edges`` order and by the
    vertex colours. The top-level keys come in sorted order; only the small
    ``report`` and ``verified`` dicts go through ``_emit``, so a non-finite
    float in them raises ValueError as it would there.
    """
    vertices, at = _lookup(g._ends.ravel())
    u, v = at[0::2], at[1::2]
    name = _names(vertices)
    colours, c = _lookup(phi.edge_colors)
    vertex_colours, vc = _lookup(phi.vertex_colors)
    doc = ['{"edge_colors": [']
    doc += _rows(('{"c": ' + _names(colours) + ', "u": ')[c],
                 (name + ', "v": ')[u], (name + "}, ")[v])
    doc.append('], "edges": [')
    doc += _rows(("[" + name + ", ")[u], (name + "], ")[v])
    doc.append(f'], "k": {phi.k}, "n": {g.n}, ')
    if report is not None:
        doc.append(f'"report": {_emit(report)}, ')
    doc.append(f'"verified": {_emit(verified)}, "vertex_colors": [')
    doc += _rows((_names(vertex_colours) + ", ")[vc])
    doc.append("]}")
    return "".join(doc)


def _lookup(values: np.ndarray | Sequence) -> tuple[Sequence, np.ndarray]:
    """A table of values to write and the index of each value in it, for
    values an int64 array or a sequence.

    The table of an int64 array, or of a sequence of integers within
    int64, whose range is at most twice their number holds its distinct
    values, ascending, indexed through a mask over that range; a wider
    range makes the values, as ints, their own table, so the work follows
    the values present, never their size. Any other sequence, such as one
    with ints beyond int64, is its own table.
    """
    exact = values if isinstance(values, np.ndarray) else _int64(values)
    if exact is None:
        return values, np.arange(len(values))
    if exact.size:
        low = int(exact.min())
        span = int(exact.max()) - low + 1
        if span <= 2 * exact.size:
            seen = np.zeros(span, dtype=bool)
            seen[exact - low] = True
            return (np.flatnonzero(seen) + low).tolist(), (np.cumsum(seen) - 1)[exact - low]
    return exact.tolist(), np.arange(exact.size)


def _names(values: list) -> np.ndarray:
    """Each value written as text, in an object array for token tables."""
    return np.array(list(map(str, values)), dtype=object)


def _rows(*columns: np.ndarray) -> list[str]:
    """The strings of the equal-length object arrays in columns, row by
    row, with the final ``', '`` dropped from the last."""
    flat = [""] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        flat[i::len(columns)] = column.tolist()
    if flat:
        flat[-1] = flat[-1][:-2]
    return flat


def _is_int(value) -> bool:
    """JSON integers only: booleans and floats, even integral ones, are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def from_document(doc: dict) -> tuple[Graph, TotalColoring]:
    """Rebuild (graph, colouring) from a document.

    Shape faults raise DocumentError, and so does any count, endpoint or
    colour that is not a JSON integer (booleans and floats included). The
    edge-colour records must name each edge of the graph once, with its
    ends in either order: a malformed record is named first, then the
    first record, in document order, for a non-edge or an edge named
    before, then the first edge of ``g.edges`` without a record. Each
    colour is placed at the row of its edge, which ``graphs._edge_rows``
    finds, so the colouring is made on the returned graph. Stored
    ``verified`` flags are ignored, callers recompute them. Improper
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
    records = doc["edge_colors"]
    for item in records:
        if not (isinstance(item, dict)
                and all(_is_int(item.get(key)) for key in ("u", "v", "c"))):
            raise DocumentError(f"bad edge colour record: {item!r}")
    pairs = [normalize_edge(item["u"], item["v"]) for item in records]
    colours: list[int | None] = [None] * len(g.edges)
    for e, row, item in zip(pairs, _edge_rows(g, pairs).tolist(), records):
        if row < 0:
            raise DocumentError(f"edge colour for non-edge {e}")
        if colours[row] is not None:
            raise DocumentError(f"duplicate edge colour for {e}")
        colours[row] = item["c"]
    if None in colours:
        raise DocumentError(f"missing edge colour for {g.edges[colours.index(None)]}")
    phi = TotalColoring(tuple(vcs), tuple(colours), k, g)
    try:
        check_total(g, phi)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    return g, phi
