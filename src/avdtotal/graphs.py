"""Graph container, text formats, generators, and the low/high degree split."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

Edge = tuple[int, int]

_G6_LOW = 63
_G6_HIGH = 126


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class DimacsError(ValueError):
    """Malformed DIMACS colouring input."""


class CapacityError(ValueError):
    """Input exceeds a hard size guard."""


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``.

    ``edges`` is a sorted tuple of sorted pairs; adjacency lists and the
    maximum degree are built once at construction. Instances are immutable.
    """

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    edge_set: frozenset[Edge] = field(repr=False, compare=False)
    max_degree: int = field(compare=False)

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            seen.add(normalize_edge(u, v))
        ordered = tuple(sorted(seen))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in ordered:
            adj[u].append(v)
            adj[v].append(u)
        adjacency = tuple(tuple(sorted(a)) for a in adj)
        delta = max((len(a) for a in adjacency), default=0)
        return cls(n=n, edges=ordered, adjacency=adjacency,
                   edge_set=frozenset(ordered), max_degree=delta)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edge_set

    def incident_edges(self, v: int) -> list[Edge]:
        return [normalize_edge(v, w) for w in self.adjacency[v]]


@dataclass(frozen=True)
class DegreeSplit:
    """Partition of the vertex set into low and high degree classes."""

    low: frozenset[int]
    high: frozenset[int]


def degree_split(g: Graph) -> DegreeSplit:
    """Split by the exact integer test: v is low iff 2*deg(v) <= max degree.

    An edgeless graph has every vertex low; any vertex of maximum degree
    at least one is high.
    """
    low = frozenset(v for v in range(g.n) if 2 * g.degree(v) <= g.max_degree)
    return DegreeSplit(low=low, high=frozenset(range(g.n)) - low)


# ---------------------------------------------------------------------------
# graph6

def parse_graph6(text: str) -> Graph:
    """Decode a single graph6 string (basic one-byte header, n <= 62)."""
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    for i, ch in enumerate(s):
        if not (_G6_LOW <= ord(ch) <= _G6_HIGH):
            raise Graph6Error(f"character {ch!r} outside graph6 alphabet", i)
    n = ord(s[0]) - _G6_LOW
    if n == 63:
        raise Graph6Error("extended size header (n > 62) not supported", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[1:]
    if len(body) < nbytes:
        raise Graph6Error(
            f"truncated bit vector: expected {nbytes} bytes, found {len(body)}",
            1 + len(body))
    if len(body) > nbytes:
        raise Graph6Error("stray characters after bit vector", 1 + nbytes)
    bits: list[int] = []
    for ch in body:
        val = ord(ch) - _G6_LOW
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph.build(n, edges)


def write_graph6(g: Graph) -> str:
    """Encode with the basic one-byte header; graphs need n <= 62."""
    if g.n > 62:
        raise CapacityError("basic graph6 encoding supports at most 62 vertices")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if (i, j) in g.edge_set else 0)
    out = [chr(g.n + _G6_LOW)]
    for start in range(0, len(bits), 6):
        group = bits[start:start + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        out.append(chr(val + _G6_LOW))
    return "".join(out)


# ---------------------------------------------------------------------------
# DIMACS .col

def parse_dimacs(text: str) -> Graph:
    """Read DIMACS colouring format: one ``p edge n m`` line, ``e u v`` lines
    with 1-based endpoints. Comments are skipped, duplicate edges collapse,
    self-loops are rejected."""
    n: int | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise DimacsError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer problem sizes") from None
            if n < 0:
                raise DimacsError(f"line {lineno}: negative vertex count")
        elif parts[0] == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise DimacsError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer endpoints") from None
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop at vertex {u + 1}")
            if not (0 <= u < n and 0 <= v < n):
                raise DimacsError(f"line {lineno}: endpoint out of range")
            edges.append(normalize_edge(u, v))
        else:
            raise DimacsError(f"line {lineno}: unrecognised record {parts[0]!r}")
    if n is None:
        raise DimacsError("missing problem line 'p edge <n> <m>'")
    return Graph.build(n, edges)


# ---------------------------------------------------------------------------
# generators

def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.build(n, itertools.combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    return Graph.build(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the centre at vertex 0."""
    if leaves < 0:
        raise ValueError("leaf count must be non-negative")
    return Graph.build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# random_gnp draws its pair indicators in chunks of this many, so memory
# stays bounded for large n while the stream matches one single draw
_GNP_CHUNK = 1 << 20


def _generator_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi draw; deterministic for a fixed (n, p, seed)."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = _generator_rng(seed)
    # pair k of the lexicographic order (0,1), (0,2), .., (n-2,n-1) gets the
    # k-th draw; row i holds (i, i+1) .. (i, n-1) and starts at offsets[i]
    total = n * (n - 1) // 2
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * (n - 1) - rows * (rows - 1) // 2
    edges: list[Edge] = []
    for start in range(0, total, _GNP_CHUNK):
        hits = start + np.flatnonzero(rng.random(min(_GNP_CHUNK, total - start)) < p)
        i = np.searchsorted(offsets, hits, side="right") - 1
        edges.extend(zip(i.tolist(), (hits - offsets[i] + i + 1).tolist()))
    return Graph.build(n, edges)


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the pairing model with rejection.

    Requires 0 <= d < n and even n*d. Dense degrees (d close to n-1) make
    rejection slow; use complete_graph for d = n-1.
    """
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    if (n * d) % 2:
        raise ValueError("n*d must be even")
    rng = _generator_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(1000):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges = {normalize_edge(int(u), int(v)) for u, v in pairs}
        if len(edges) == len(pairs) and all(u != v for u, v in edges):
            return Graph.build(n, edges)
    raise RuntimeError("pairing model failed to produce a simple graph")


_FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "complete_bipartite": complete_bipartite_graph,
    "star": star_graph,
    "random_gnp": random_gnp,
    "random_regular": random_regular,
}


def generate(family: str, **params) -> Graph:
    """Dispatch to a named generator; unknown families or parameters raise."""
    try:
        fn = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown graph family {family!r}") from None
    try:
        return fn(**params)
    except TypeError:
        raise ValueError(f"invalid parameters for family {family!r}: {params}") from None
