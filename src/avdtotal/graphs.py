"""Graph container, text formats, generators, and the low/high degree split."""

from __future__ import annotations

import itertools
import numbers
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

Edge = tuple[int, int]

_G6_LOW = 63
# the graph6 size headers: a marker, then n in this many six-bit bytes,
# for n up to the bound
_G6_SIZES = (("", 1, 62), ("~", 3, 258047), ("~~", 6, (1 << 36) - 1))
_G6_OUTSIDE = re.compile("[^?-~]")  # the alphabet is chr(63) .. chr(126)
_G6_SET = re.compile("[^?]")  # "?" is 0, every other character sets a bit
# a six-bit value's set bits as offsets from its most significant bit, and
# each value's graph6 character
_G6_BITS = tuple(tuple(b for b in range(6) if v >> 5 - b & 1) for v in range(64))
_G6_CHARS = bytes(b + _G6_LOW & 255 for b in range(256))


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class DimacsError(ValueError):
    """Malformed DIMACS colouring input."""


class CapacityError(ValueError):
    """Input exceeds a hard size guard."""


def _integer(name: str, value, error: type[ValueError] = ValueError) -> int:
    """value as an int when it is an integer (anything ``operator.index``
    takes, bool excluded); error, naming the argument, otherwise."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``.

    ``edges`` is a sorted tuple of sorted pairs; adjacency lists and the
    maximum degree are built once at construction, the degree split and
    the endpoint array ``_ends`` on their first request. Instances are
    immutable.
    """

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    edge_set: frozenset[Edge] = field(repr=False, compare=False)
    max_degree: int = field(compare=False)

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        n = _integer("n", n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        # one C-level scan of the endpoint types: bools, numpy integers and
        # non-integers take the slow path, which converts or rejects them
        if not {int}.issuperset(map(type, itertools.chain.from_iterable(edges))):
            edges = [(_integer("edge endpoint", u), _integer("edge endpoint", v))
                     for u, v in edges]
        # an insertion-ordered dict, not a set, dedupes: sorting its keys
        # is linear when the edges arrive sorted, as from most generators
        seen: dict[Edge, None] = {}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            seen[(u, v) if u < v else (v, u)] = None
        return _assemble(n, tuple(sorted(seen)))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edge_set

    def incident_edges(self, v: int) -> list[Edge]:
        return [normalize_edge(v, w) for w in self.adjacency[v]]

    @cached_property
    def _split(self) -> DegreeSplit:
        low = frozenset(v for v in range(self.n)
                        if 2 * self.degree(v) <= self.max_degree)
        return DegreeSplit(low=low, high=frozenset(range(self.n)) - low)

    @cached_property
    def _ends(self) -> np.ndarray:
        """The edges as a read-only (m, 2) int64 array, row i holding
        ``edges[i]``; built on first read, or set by the generator or
        DIMACS reader that made the graph."""
        ends = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.int64,
                           count=2 * len(self.edges)).reshape(-1, 2)
        ends.flags.writeable = False
        return ends


def _assemble(n: int, ordered: tuple[Edge, ...]) -> Graph:
    """The graph on n vertices with edge tuple ordered, which must hold
    distinct pairs (u, v) of ints, 0 <= u < v < n, in sorted order; nothing
    is checked. ``Graph.build`` calls it once it has validated its input,
    and generators call it directly on output that is valid by construction.
    """
    # in lexicographic edge order each vertex meets its smaller neighbours
    # first, then its larger ones, each ascending, so every adjacency list
    # comes out sorted
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in ordered:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n=n, edges=ordered, adjacency=tuple(map(tuple, adj)),
                 edge_set=frozenset(ordered), max_degree=max(map(len, adj), default=0))


def _from_ends(n: int, ends: np.ndarray) -> Graph:
    """``_assemble`` of the edges in the (m, 2) int64 array ends, which must
    meet its conditions row by row, with ``_ends`` set to ends, made
    read-only."""
    g = _assemble(n, tuple(zip(ends[:, 0].tolist(), ends[:, 1].tolist())))
    ends.flags.writeable = False
    object.__setattr__(g, "_ends", ends)
    return g


@dataclass(frozen=True)
class DegreeSplit:
    """Partition of the vertex set into low and high degree classes."""

    low: frozenset[int]
    high: frozenset[int]


def degree_split(g: Graph) -> DegreeSplit:
    """Split by the exact integer test: v is low iff 2*deg(v) <= max degree.

    An edgeless graph has every vertex low; any vertex of maximum degree
    at least one is high. Each graph computes its split once; later calls
    return the same object.
    """
    return g._split


# ---------------------------------------------------------------------------
# graph6

def _g6_header(n: int) -> str:
    """The shortest graph6 size header that holds n: its marker, then n in
    six-bit bytes, most significant first."""
    for marker, count, largest in _G6_SIZES:
        if n <= largest:
            return marker + "".join(chr((n >> shift & 63) + _G6_LOW)
                                    for shift in range(6 * count - 6, -1, -6))
    raise CapacityError(f"graph6 encodes at most {_G6_SIZES[-1][2]} vertices")


def parse_graph6(text: str) -> Graph:
    """Decode a single graph6 string, with the one-byte size header for
    n <= 62 or an extended one above; error offsets count from the start
    of the stripped text, header included."""
    s = text.strip()
    start = len(">>graph6<<") if s.startswith(">>graph6<<") else 0
    s = s[start:]
    if not s:
        raise Graph6Error("empty graph6 string", start)
    bad = _G6_OUTSIDE.search(s)
    if bad:
        raise Graph6Error(f"character {bad.group()!r} outside graph6 alphabet",
                          start + bad.start())
    # "~" opens an extended header, "~~" the longer one; n is read from
    # the six-bit bytes after it
    marker = "~~" if s.startswith("~~") else "~" if s[0] == "~" else ""
    count = next(c for m, c, _ in _G6_SIZES if m == marker)
    size = s[len(marker):len(marker) + count]
    if len(size) < count:
        raise Graph6Error(f"truncated extended size header: expected {count} "
                          f"bytes after {marker!r}, found {len(size)}", start)
    n = 0
    for ch in size:
        n = n << 6 | ord(ch) - _G6_LOW
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    offset = len(marker) + count
    body = s[offset:]
    if len(body) < nbytes:
        raise Graph6Error(
            f"truncated bit vector: expected {nbytes} bytes, found {len(body)}",
            start + offset + len(body))
    if len(body) > nbytes:
        raise Graph6Error("stray characters after bit vector", start + offset + nbytes)
    # bit j(j - 1)/2 + i stands for the pair i < j, so the set bits, read
    # in order, walk the columns j upwards; padding bits past nbits are
    # ignored. Each row i collects its j ascending, so the rows read in
    # order give the edges sorted.
    rows: list[list[int]] = [[] for _ in range(n)]
    j, column = 1, 0  # column j holds the bits column .. column + j - 1
    for byte in _G6_SET.finditer(body):
        for bit in _G6_BITS[ord(byte.group()) - _G6_LOW]:
            index = 6 * byte.start() + bit
            if index >= nbits:
                break
            while index >= column + j:
                column += j
                j += 1
            rows[index - column].append(j)
    return _assemble(n, tuple((i, j) for i, row in enumerate(rows) for j in row))


def write_graph6(g: Graph) -> str:
    """Encode with the shortest size header that holds n: one byte for
    n <= 62, then "~" plus three bytes, then "~~" plus six, up to
    n = 2**36 - 1."""
    header = _g6_header(g.n)
    body = bytearray((g.n * (g.n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        index = j * (j - 1) // 2 + i
        body[index // 6] |= 32 >> index % 6
    return header + body.translate(_G6_CHARS).decode("ascii")


# ---------------------------------------------------------------------------
# DIMACS .col

# a DIMACS text the array reader takes, its lines joined by "\n": comment or
# empty lines, the problem line spaced by single blanks, then only edge
# records whose endpoints are at most 18 ASCII digits, which int64 holds
_DIMACS_PLAIN = re.compile(
    r"(?:c[^\n]*\n|\n)*p edge ([0-9]+) [0-9]+((?:\ne [0-9]{1,18} [0-9]{1,18})*)")


def parse_dimacs(text: str) -> Graph:
    """Read DIMACS colouring format: one ``p edge n m`` line, ``e u v`` lines
    with 1-based endpoints. Comments are skipped, duplicate edges collapse,
    self-loops are rejected. Every number is a run of ASCII digits.

    Two readers share the work, and give the same graph or error on every
    text. The array reader takes a text of comment or empty lines, the
    problem line and then only edge records, each single-spaced, with
    endpoints of at most 18 digits, in range and never equal: it reads
    every endpoint in one numpy call, with no Python step per line. Every
    other text, and every text that breaks a rule, goes to the line reader
    ``_parse_dimacs_lines``, the one place that names a fault and its line.
    """
    plain = _DIMACS_PLAIN.fullmatch("\n".join(text.splitlines()))
    if plain is not None:
        n = int(plain[1])
        ends = np.fromstring(plain[2].replace("e", " "), np.int64, sep=" ").reshape(-1, 2) - 1
        u, v = ends[:, 0], ends[:, 1]
        # n * n bounds every key lo * n + hi in int64
        if (n * n <= 1 << 63 and (not ends.size or 0 <= ends.min() <= ends.max() < n)
                and (u != v).all()):
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            keys = lo * n + hi
            if (keys[1:] <= keys[:-1]).any():
                lo, hi = np.divmod(np.unique(keys), n)
            return _from_ends(n, np.column_stack((lo, hi)))
    return _parse_dimacs_lines(text)


def _parse_dimacs_lines(text: str) -> Graph:
    """``parse_dimacs`` one line at a time, for any text. Every number is
    checked to be a run of ASCII digits before ``int`` reads it, since
    ``int`` also takes signs, underscores and other scripts' digits."""
    n: int | None = None
    edges: list[Edge] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        # one split per line; edge records, the bulk of a file, test first
        parts = line.split()
        if not parts:
            continue
        head = parts[0]
        if head == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise DimacsError(f"line {lineno}: expected 'e <u> <v>'")
            _, a, b = parts
            # two non-empty tokens are both digit runs when their
            # concatenation is one
            ab = a + b
            if not (ab.isdigit() and ab.isascii()):
                raise DimacsError(f"line {lineno}: non-integer endpoints")
            u, v = int(a) - 1, int(b) - 1
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop at vertex {u + 1}")
            if not (0 <= u < n and 0 <= v < n):
                raise DimacsError(f"line {lineno}: endpoint out of range")
            edges.append((u, v))
        elif head[0] == "c":
            # the first token starts with c exactly when the stripped line does
            continue
        elif head == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise DimacsError(f"line {lineno}: expected 'p edge <n> <m>'")
            ab = parts[2] + parts[3]
            if not (ab.isdigit() and ab.isascii()):
                raise DimacsError(f"line {lineno}: non-integer problem sizes")
            n = int(parts[2])
        else:
            raise DimacsError(f"line {lineno}: unrecognised record {head!r}")
    if n is None:
        raise DimacsError("missing problem line 'p edge <n> <m>'")
    return Graph.build(n, edges)


# ---------------------------------------------------------------------------
# generators

def path_graph(n: int) -> Graph:
    n = _integer("n", n)
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    n = _integer("n", n)
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    n = _integer("n", n)
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.build(n, itertools.combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    a, b = _integer("a", a), _integer("b", b)
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    return Graph.build(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the centre at vertex 0."""
    leaves = _integer("leaves", leaves)
    if leaves < 0:
        raise ValueError("leaf count must be non-negative")
    return Graph.build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# random_gnp draws its pair indicators in chunks of this many, so memory
# stays bounded for large n while the stream matches one single draw
_GNP_CHUNK = 1 << 20


def _generator_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi draw; deterministic for a fixed (n, p, seed). p is any
    real number in [0, 1] (an int, float or Fraction, say), bool excluded."""
    n, seed = _integer("n", n), _integer("seed", seed)
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise ValueError(f"edge probability p must be a real number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = _generator_rng(seed)
    # pair k of the lexicographic order (0,1), (0,2), .., (n-2,n-1) gets the
    # k-th draw; row i holds (i, i+1) .. (i, n-1) and starts at offsets[i]
    total = n * (n - 1) // 2
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * (n - 1) - rows * (rows - 1) // 2
    chunks = [np.zeros((0, 2), dtype=np.int64)]
    for start in range(0, total, _GNP_CHUNK):
        hits = start + np.flatnonzero(rng.random(min(_GNP_CHUNK, total - start)) < p)
        i = np.searchsorted(offsets, hits, side="right") - 1
        chunks.append(np.column_stack((i, hits - offsets[i] + i + 1)))
    # the pairs come out distinct, in range and in lexicographic order, so
    # the graph is assembled without Graph.build's checks
    return _from_ends(n, np.concatenate(chunks))


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the pairing model with rejection.

    Requires 0 <= d < n and even n*d. Dense degrees (d close to n-1) make
    rejection slow. K_n is the only (n-1)-regular graph on n labelled
    vertices, so d = n-1 returns complete_graph(n).
    """
    n, d, seed = _integer("n", n), _integer("d", d), _integer("seed", seed)
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    if (n * d) % 2:
        raise ValueError("n*d must be even")
    if d == n - 1:
        return complete_graph(n)
    rng = _generator_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(1000):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges = {normalize_edge(int(u), int(v)) for u, v in pairs}
        if len(edges) == len(pairs) and all(u != v for u, v in edges):
            return Graph.build(n, edges)
    raise RuntimeError("pairing model failed to produce a simple graph")
